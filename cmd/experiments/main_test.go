package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfileTargetErrorsPropagate: a profile file that cannot be
// created or finished must fail the run. The deferred f.Close() these
// paths used to rely on swallowed exactly this class of error — a
// truncated profile with exit 0.
func TestProfileTargetErrorsPropagate(t *testing.T) {
	dir := t.TempDir()
	// A directory as the target file: os.Create fails immediately.
	if err := run(1, dir, "", "", "", []string{"E1"}); err == nil {
		t.Error("cpuprofile pointing at a directory accepted")
	}
	if err := run(1, "", dir, "", "", []string{"E1"}); err == nil {
		t.Error("memprofile pointing at a directory accepted")
	}
	// A read-only directory: the create inside writeMemProfile fails and
	// the error must come back out, not vanish.
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Geteuid() != 0 { // root bypasses mode bits
		if err := writeMemProfile(filepath.Join(ro, "heap.pb")); err == nil {
			t.Error("read-only target accepted")
		}
	}
}

// TestProfileFilesLand: the success path still writes both profiles.
func TestProfileFilesLand(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "heap.pb")
	if err := run(1, cpu, mem, "", "", []string{"E1"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestBadExperimentStillWritesMetrics: an unknown id fails the run but
// the observability files land anyway (the documented behavior), and the
// failure reaches the caller.
func TestBadExperimentStillWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.txt")
	if err := run(1, "", "", "", metrics, []string{"E999"}); err == nil {
		t.Error("unknown experiment id accepted")
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file missing after failed run: %v", err)
	}
}

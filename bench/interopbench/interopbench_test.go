package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cadinterop/internal/serve"
)

// tiny runs every workload's code paths in well under a second each.
var tiny = sizes{cells: 8, nets: 200, pool: 4, gen: 12, blocks: 2, rate: 200, warmupCap: 2, traceCap: 3}

// inProcess starts a serve.Server behind httptest, configured as
// daemonFlags configures interopd for the workload.
func inProcess(w workload, dir string) (*target, error) {
	cfg := serve.Config{Workers: 2, Queue: -1}
	switch w.cache {
	case "mem":
		cfg.CacheMem = true
	case "dir":
		cfg.CacheDir = filepath.Join(dir, "cache")
	}
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(s.Handler())
	return &target{url: ts.URL, pid: os.Getpid(), stop: func() error { ts.Close(); return s.Close() }}, nil
}

func tinyRunner(t *testing.T, ref reference, traceDir string) *runner {
	return &runner{seed: 7, dur: 200 * time.Millisecond, sz: tiny, workers: 2, work: t.TempDir(),
		traceDir: traceDir, start: inProcess, ref: ref, log: io.Discard}
}

// snapshot renders a plan's first timed requests and every file it wrote,
// with the directory stripped from paths, so two builds into different
// directories compare equal exactly when their inputs do.
func snapshot(t *testing.T, w workload, dir string, seed int64) string {
	p, err := w.build(dir, seed, tiny)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range append(append(append([]request(nil), p.warm...), p.prime...), list(50, p.timed)...) {
		b.WriteString(r.key() + "\n")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %x\n", filepath.Base(f), data)
	}
	return strings.ReplaceAll(b.String(), dir, "DIR")
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := snapshot(t, w, t.TempDir(), 1)
		if b := snapshot(t, w, t.TempDir(), 1); a != b {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if c := snapshot(t, w, t.TempDir(), 2); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
	if a, b := arrivalsFor(1, 100, time.Second), arrivalsFor(1, 100, time.Second); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different arrival schedules")
	}
	if a, b := arrivalsFor(1, 100, time.Second), arrivalsFor(2, 100, time.Second); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("seeds 1 and 2 gave the same arrival schedule")
	}
}

// TestSmokeEveryWorkload runs each workload, traced, at tiny sizes against
// an in-process server and checks that the run measures every metric
// BENCHMARK.json names and prints it with its unit, and that nothing
// failed.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &listed); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range listed.Workloads {
		want = append(want, w.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the harness runs %v, BENCHMARK.json names %v", got, want)
	}
	rn := tinyRunner(t, coldReference, t.TempDir())
	for _, w := range workloads {
		res, err := rn.run(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Metrics["error_rate"] != 0 {
			t.Errorf("%s: correct=%v failed=%d error_rate=%v", w.name, res.Correct, res.Failed, res.Metrics["error_rate"])
		}
		var lines bytes.Buffer
		printLines(&lines, s, w.name, res)
		for _, traced := range []bool{false, true} {
			sum, err := summarize(s, map[string]*result{w.name: res}, traced)
			if err != nil {
				t.Errorf("traced=%v: %v", traced, err)
			}
			for name, vu := range sum.Metrics {
				// Every time is measured on every run, even in a layer the
				// workload's own traffic never reaches.
				if traced && (vu.Unit == "ms" || vu.Unit == "ns") && vu.Value == 0 {
					t.Errorf("%s: metric %s reads 0", w.name, name)
				}
				if !strings.Contains(lines.String(), fmt.Sprintf("%s %s %.6g %s\n", w.name, name, vu.Value, vu.Unit)) {
					t.Errorf("%s: no printed line for %s", w.name, name)
				}
			}
		}
		if c := res.Metrics["trace.coverage"]; c <= 0 {
			t.Errorf("%s: trace.coverage = %v", w.name, c)
		}
		for _, suffix := range []string{".trace.json", ".layers.txt"} {
			if _, err := os.Stat(filepath.Join(rn.traceDir, w.name+suffix)); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestResultSets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	for i, set := range []string{"#0", "#1", "#0"} {
		res := map[string]*result{"warm-repeat": {Correct: true, Attempted: i + 1}}
		if err := writeResults(path+set, int64(i), 1, res); err != nil {
			t.Fatal(err)
		}
	}
	for arg, want := range map[string][]int64{path: {0, 2, 1}, path + "#0": {0, 2}, path + "#1": {1}} {
		runs, err := readRuns(arg)
		if err != nil {
			t.Fatal(err)
		}
		var seeds []int64
		for _, r := range runs {
			seeds = append(seeds, r.Seed)
		}
		if fmt.Sprint(seeds) != fmt.Sprint(want) {
			t.Errorf("readRuns(%s) seeds = %v, want %v", filepath.Base(arg), seeds, want)
		}
	}
	if _, err := readRuns(path + "#2"); err == nil {
		t.Error("readRuns of a missing set succeeded")
	}
}

func TestTamperedReferenceTripsTheOracle(t *testing.T) {
	tampered := func(r request) serve.Response {
		resp := coldReference(r)
		resp.Output += "!"
		return resp
	}
	rn := tinyRunner(t, tampered, "")
	w, _ := workloadByName("warm-repeat")
	res, err := rn.run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["error_rate"] == 0 {
		t.Errorf("tampered reference passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

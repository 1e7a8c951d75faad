package cadinterop

// The golden corpus: committed expected bytes for the workbench's rendered
// outputs, so "byte-identical to the previous revision" is a go test fact
// instead of a hand-run diff. Each case renders at one worker and at
// eight, and both renderings must equal the same file under
// testdata/golden/. Regenerate the files only for an intended output
// change, and never to turn a failing test green:
//
//	go test -run TestGolden -update .

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cadinterop/internal/experiments"
	"cadinterop/internal/memo"
	"cadinterop/internal/par"
	"cadinterop/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenDir holds one file per case: experiments/<ID>.txt is what
// cmd/experiments prints for that experiment,
// bplane/cells<N>-seed<S>-<mode>.txt is what cmd/bplane and
// /v1/translate print for that run, and schemig/gen<N>-seed<S>.txt is
// what `schemig -gen N -seed S -v` prints, and check/<mode>.txt is what
// `interop -check` prints in that mode over every file under checkDir,
// each followed by the returned error, if any. disk/ holds stored bytes:
// interchange files, a cache entry and two journals (golden_disk_test.go).
const goldenDir = "testdata/golden"

// checkDir holds the inputs of the check cases: clean and damaged .edf
// and .cd files, a .vl and an .al. They sit outside goldenDir, which
// -update rewrites wholesale, and are named by relative paths so every
// rendered path:line:col is the same on every checkout.
const checkDir = "testdata/check"

// goldenBplaneModes are the bplane flag sets each (cells, seed) pair runs
// under: none, -loss and -roundtrip.
var goldenBplaneModes = []struct {
	name            string
	loss, roundTrip bool
}{
	{"plain", false, false},
	{"loss", true, false},
	{"roundtrip", false, true},
}

// renderGolden renders every golden case at the given worker count, keyed
// by its file path under goldenDir.
func renderGolden(t *testing.T, jobs int) map[string]string {
	out := make(map[string]string)
	// The harness degrades a failing experiment to a FAILED report in its
	// slot, which is exactly what the CLI prints, so the error needs no
	// rendering of its own.
	reports, _ := experiments.All(par.Workers(jobs))
	for _, r := range reports {
		out[filepath.Join("experiments", r.ID+".txt")] = r.String() + "\n"
	}
	for _, cells := range []int{16, 24, 48} {
		for _, seed := range []int64{1, 11, 42} {
			for _, m := range goldenBplaneModes {
				var buf bytes.Buffer
				req := serve.TranslateRequest{Cells: cells, Seed: seed, Loss: m.loss, RoundTrip: m.roundTrip, Jobs: jobs}
				if err := serve.Translate(context.Background(), &buf, req, nil, nil); err != nil {
					fmt.Fprintf(&buf, "error: %v\n", err)
				}
				out[filepath.Join("bplane", fmt.Sprintf("cells%d-seed%d-%s.txt", cells, seed, m.name))] = buf.String()
			}
		}
	}
	// Each migration runs twice through one cache, so the file pins the
	// cache's miss path (the render it stores) and its hit (the stored
	// bytes written back).
	for _, gen := range []int{10, 60, 150} {
		for _, seed := range []int64{1, 42} {
			file := filepath.Join("schemig", fmt.Sprintf("gen%d-seed%d.txt", gen, seed))
			cache := memo.New(nil)
			miss := renderMigrate(gen, seed, cache)
			if hit := renderMigrate(gen, seed, cache); hit != miss {
				t.Errorf("-j %d: %s: the cache hit differs from the miss: %s", jobs, file, firstDiff(miss, hit))
			}
			if got := cache.Hits(); got != 1 {
				t.Errorf("-j %d: %s: %d cache hits, want 1", jobs, file, got)
			}
			out[file] = miss
		}
	}
	checks, err := filepath.Glob(filepath.Join(checkDir, "*"))
	if err != nil || len(checks) == 0 {
		t.Fatalf("no check inputs under %s: %v", checkDir, err)
	}
	for _, lenient := range []bool{false, true} {
		var buf bytes.Buffer
		req := serve.CheckRequest{Files: checks, Lenient: lenient, Jobs: jobs}
		if err := serve.Check(context.Background(), &buf, req, nil); err != nil {
			fmt.Fprintf(&buf, "error: %v\n", err)
		}
		mode := "strict"
		if lenient {
			mode = "lenient"
		}
		out[filepath.Join("check", mode+".txt")] = buf.String()
	}
	renderDisk(t, out)
	return out
}

// renderMigrate renders one `schemig -gen N -seed S -v` run: the report
// and the migrated design on one stream, as the CLI prints them.
func renderMigrate(gen int, seed int64, cache *memo.Cache) string {
	var buf bytes.Buffer
	req := serve.MigrateRequest{Gen: gen, Seed: seed, Verbose: true}
	if err := serve.Migrate(context.Background(), &buf, &buf, req, cache); err != nil {
		fmt.Fprintf(&buf, "error: %v\n", err)
	}
	return buf.String()
}

// TestGolden compares every case, at -j 1 and -j 8, against its committed
// file. With -update it first rewrites the files from the -j 1 rendering.
func TestGolden(t *testing.T) {
	var got map[string]string
	for _, jobs := range []int{1, 8} {
		got = renderGolden(t, jobs)
		if *update && jobs == 1 {
			writeGolden(t, got)
		}
		files := make([]string, 0, len(got))
		for file := range got {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			want, err := os.ReadFile(filepath.Join(goldenDir, file))
			if err != nil {
				t.Errorf("-j %d: %v (run go test -run TestGolden -update .)", jobs, err)
				continue
			}
			if got[file] != string(want) {
				t.Errorf("-j %d: %s differs from its golden file: %s", jobs, file, firstDiff(string(want), got[file]))
			}
		}
	}
	checkDiskReaders(t)
	// A file no case renders any more would pass unnoticed forever.
	filepath.WalkDir(goldenDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(goldenDir, path)
		if _, ok := got[rel]; !ok {
			t.Errorf("%s: no case renders this golden file", path)
		}
		return nil
	})
}

// writeGolden replaces the corpus with the given rendering, so a case
// that no longer exists leaves no stale file behind.
func writeGolden(t *testing.T, files map[string]string) {
	t.Helper()
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	for file, body := range files {
		path := filepath.Join(goldenDir, file)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "identical"
}

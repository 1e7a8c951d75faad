//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package al_test

import (
	"bytes"
	"runtime"
	"testing"

	"cadinterop/internal/al"
	"cadinterop/internal/workgen"
)

// TestParseSmallAllocs: the reader's arena starts with small chunks, so a
// short parse — an a/L callback script, like one record a streaming
// reader hands to Scanner.ReadForm — makes no more allocations than the
// reader did before it had an arena, and at most twice the bytes. A fixed
// 512-node first chunk would cost (+ 1 2) 33 KB.
func TestParseSmallAllocs(t *testing.T) {
	script := workgen.Schematic(workgen.SchematicOptions{Instances: 2}).MigrateOptions().Callbacks[0].Script
	for _, tc := range []struct {
		name, src     string
		allocs, bytes float64 // the pre-arena reader's cost
	}{
		{"(+ 1 2)", "(+ 1 2)", 22, 448},
		{"spice callback", script, 256, 5320},
	} {
		parse := func() {
			if _, _, err := al.ParseTracked(tc.src); err != nil {
				t.Fatal(err)
			}
		}
		avg, b := testing.AllocsPerRun(100, parse), bytesPerRun(100, parse)
		t.Logf("%s: %.0f allocations, %.0f bytes per parse", tc.name, avg, b)
		if avg > tc.allocs {
			t.Errorf("%s: %.0f allocations per parse, want <= %.0f", tc.name, avg, tc.allocs)
		}
		if b > 2*tc.bytes {
			t.Errorf("%s: %.0f bytes per parse, want <= %.0f", tc.name, b, 2*tc.bytes)
		}
	}
}

// TestScanWindowAllocs: a token-by-token scan of a 5,000-net interchange
// file that compacts after every token, as the streaming readers compact
// at every record, allocates each read chunk once, inside the new window.
// Converting each chunk to a string before joining it to the window
// allocated 2.23 times the file; one allocation per window is 1.29 times.
func TestScanWindowAllocs(t *testing.T) {
	var file bytes.Buffer
	if _, err := workgen.ScaleExchange(&file, workgen.ScaleOptions{Nets: 5000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	scan := func() {
		sc := al.NewScanner(bytes.NewReader(file.Bytes()))
		for {
			tok, _, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tok == "" {
				return
			}
			sc.Compact()
		}
	}
	b := bytesPerRun(5, scan)
	ratio := b / float64(file.Len())
	t.Logf("%.0f bytes per scan of a %d-byte file (%.2fx)", b, file.Len(), ratio)
	if ratio > 1.4 {
		t.Errorf("a scan allocates %.2f times its input, want <= 1.4", ratio)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

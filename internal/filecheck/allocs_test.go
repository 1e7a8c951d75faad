//go:build !race

// Allocation counts are meaningless under the race detector's
// instrumentation, so the alloc-regression test is compiled out of
// `go test -race`.

package filecheck

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/memo"
	"cadinterop/internal/workgen"
)

// TestVetHitAllocs pins the bytes a cached vet hit allocates: the file is
// read into a pooled buffer, so a hit costs its key, not the file's size.
// A 5,000-net interchange file is about 490 KB; a hit allocated about
// 1.4 KB on a 2-CPU machine when the bound was set, where reading the file
// into a fresh slice allocated the file's size.
//
// The hits run on one P: sync.Pool keeps a buffer per P, so a goroutine
// that moved to another P between two hits would find that P's pool empty
// and allocate a second buffer once, which says nothing about a hit's
// steady-state cost.
func TestVetHitAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := filepath.Join(t.TempDir(), "scale.edf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := workgen.ScaleExchange(f, workgen.ScaleOptions{Nets: 5000, Seed: 1})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	cache := memo.New(nil)
	opts := Options{Mode: diag.Strict, Cache: cache}
	if _, err := vetFile(path, opts); err != nil { // the miss: fills the cache and the pool
		t.Fatal(err)
	}
	const hits = 20
	var before, after runtime.MemStats
	runtime.GC() // let no collection that the miss's garbage started run into the hits
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if _, err := vetFile(path, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if cache.Hits() != hits {
		t.Fatalf("%d hits, want %d", cache.Hits(), hits)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("%d bytes per hit of a %d-byte file", perHit, info.Bytes)
	if perHit > 16<<10 {
		t.Errorf("a vet hit allocates %d bytes, want <= %d", perHit, 16<<10)
	}
}

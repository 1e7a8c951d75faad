//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package serve

import (
	"context"
	"io"
	"testing"

	"cadinterop/internal/memo"
)

// TestMigrateHitAllocs pins the allocations of a /v1/migrate cache hit at
// gen 100: generating the workload, keying it (the source's cd rendering
// hashed, the options fingerprinted) and writing the stored bytes. A hit
// parses nothing; one that read its cd back would add about 12,000.
// It took 3,554 allocations on a 2-CPU machine when the bound was set.
func TestMigrateHitAllocs(t *testing.T) {
	cache := memo.New(nil)
	req := MigrateRequest{Gen: 100, Seed: 42}
	hit := func() {
		if err := Migrate(context.Background(), io.Discard, io.Discard, req, cache); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	avg := testing.AllocsPerRun(5, hit)
	t.Logf("%.0f allocations", avg)
	if misses := cache.Misses(); misses != 1 {
		t.Fatalf("%d misses, want only the first run", misses)
	}
	if avg > 4000 {
		t.Errorf("a migrate hit makes %.0f allocations, want <= 4000", avg)
	}
}

// TestTranslateHitAllocs pins the allocations of a /v1/translate cache
// hit at the bplane defaults: generating the design, keying it (its
// exchange bytes hashed, the flow inputs fingerprinted) and writing the
// stored bytes. A hit runs and decodes no per-tool work; one that still
// did made about 2,500.
// It took 807 allocations on a 2-CPU machine when the bound was set.
func TestTranslateHitAllocs(t *testing.T) {
	cache := memo.New(nil)
	req := TranslateRequest{}.WithDefaults()
	hit := func() {
		if err := Translate(context.Background(), io.Discard, req, nil, cache); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	avg := testing.AllocsPerRun(5, hit)
	t.Logf("%.0f allocations", avg)
	if misses := cache.Misses(); misses != 1 {
		t.Fatalf("%d misses, want only the first run", misses)
	}
	if avg > 1000 {
		t.Errorf("a translate hit makes %.0f allocations, want <= 1000", avg)
	}
}

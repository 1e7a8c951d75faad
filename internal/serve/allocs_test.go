//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package serve

import (
	"context"
	"io"
	"runtime"
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

// TestFlowAllocsFlatInBlocks gates how a /v1/flow's cost grows with its
// blocks: the bytes Flow allocates per task, faulted at 7:0.2 with 3
// attempts per step and the recorder on, as the daemon runs it, may grow
// at most 1.5x from 16 blocks (52 tasks) to 256 (772). The figure is
// runtime.MemStats.TotalAlloc over three runs after one warm-up. When the
// engine sorted every task name after each finished task it grew 4.5x
// (3,780 to 16,973 B per task on a 2-CPU machine); with the order built
// once per flow it read 2,584 and 3,307 when the bound was set.
func TestFlowAllocsFlatInBlocks(t *testing.T) {
	perTask := func(blocks int) float64 {
		req := FlowRequest{Blocks: blocks, Faults: "7:0.2", Retries: 3}.WithDefaults()
		run := func() {
			if _, err := Flow(context.Background(), io.Discard, req, true); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 3
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		tasks := 3*blocks + 4 // rtl, synth and verify per block; plan, the join, assemble, signoff
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(tasks)
	}
	small, large := perTask(16), perTask(256)
	t.Logf("%.0f B per task at 16 blocks, %.0f at 256 (%.2fx)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("a flow allocates %.0f B per task at 256 blocks, %.2fx its %.0f at 16; want <= 1.5x", large, large/small, small)
	}
}

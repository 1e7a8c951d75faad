//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package exchange_test

import (
	"bytes"
	"runtime"
	"testing"

	"cadinterop/internal/exchange"
	"cadinterop/internal/workgen"
)

// TestReadBytesAllocs pins an in-memory read's allocations and bytes per
// net. The s-expression reader takes its nodes and list arrays from a
// per-parse arena and skips strconv.ParseFloat on symbols, which brought a
// net from 123 allocations to about 26. A net is about two records, so the
// count bound fails if either comes undone or if a record costs one more
// allocation. The walker releases the arena at every record boundary, so a
// record is carved from the chunks the one before it used: that brought a
// net from about 2,345 bytes to about 1,280 on a 2-CPU machine, and the
// byte bound fails if the arena grows with the file again.
func TestReadBytesAllocs(t *testing.T) {
	const nets = 1000
	var buf bytes.Buffer
	if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: nets, Seed: 61}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	read := func() {
		if _, _, err := exchange.ReadBytes(data, exchange.ReadOptions{RequireTrailer: true}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, read)
	t.Logf("%.1f allocations per net", avg/nets)
	if avg/nets > 27 {
		t.Errorf("ReadBytes makes %.1f allocations per net, want <= 27", avg/nets)
	}
	const reads = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perNet := (after.TotalAlloc - before.TotalAlloc) / reads / nets
	t.Logf("%d bytes per net", perNet)
	if perNet > 1500 {
		t.Errorf("ReadBytes allocates %d bytes per net, want <= 1500", perNet)
	}
}

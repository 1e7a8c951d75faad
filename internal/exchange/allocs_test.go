//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package exchange_test

import (
	"bytes"
	"testing"

	"cadinterop/internal/exchange"
	"cadinterop/internal/workgen"
)

// TestReadBytesAllocs pins an in-memory read's allocations per net. The
// s-expression reader takes its nodes and list arrays from a per-parse
// arena and skips strconv.ParseFloat on symbols, which brought a net from
// 123 allocations to about 26. A net is about two records, so the bound
// fails if either comes undone or if a record costs one more allocation.
func TestReadBytesAllocs(t *testing.T) {
	const nets = 1000
	var buf bytes.Buffer
	if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: nets, Seed: 61}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	avg := testing.AllocsPerRun(5, func() {
		if _, _, err := exchange.ReadBytes(data, exchange.ReadOptions{RequireTrailer: true}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per net", avg/nets)
	if avg/nets > 27 {
		t.Errorf("ReadBytes makes %.1f allocations per net, want <= 27", avg/nets)
	}
}

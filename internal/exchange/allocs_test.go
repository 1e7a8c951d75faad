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

// TestReadBytesAllocs pins the buffered reader's allocations per net. The
// s-expression reader takes its nodes and list arrays from a per-parse
// arena and skips strconv.ParseFloat on symbols, which brought a net from
// 123 allocations to about 26; the bound fails if either comes undone.
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
	if avg/nets > 40 {
		t.Errorf("ReadBytes makes %.1f allocations per net, want <= 40", avg/nets)
	}
}

//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package cd_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/serve"
)

// TestReadBytesAllocs pins the allocations of a strict in-memory cd read:
// the 40,024-byte design that a 100-instance migration renders, read
// back. It took 12,186 allocations (about 122 per instance) on a 2-CPU
// machine when the bound was set, so one more allocation per record fails
// it.
func TestReadBytesAllocs(t *testing.T) {
	var buf bytes.Buffer
	req := serve.MigrateRequest{Gen: 100, Seed: 42}
	if err := serve.Migrate(context.Background(), io.Discard, &buf, req, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) != 40024 {
		t.Fatalf("the migrated design is %d bytes, want 40024", len(data))
	}
	opts := cd.ReadOptions{Mode: diag.Strict, Source: "<migrated>"}
	avg := testing.AllocsPerRun(5, func() {
		if _, _, err := cd.ReadBytes(data, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", avg)
	if avg > 12300 {
		t.Errorf("ReadBytes makes %.0f allocations, want <= 12300", avg)
	}
}

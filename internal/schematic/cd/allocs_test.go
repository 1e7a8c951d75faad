//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package cd_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// TestReadBytesAllocs pins the allocations and bytes of a strict
// in-memory cd read: the 40,024-byte design that a 100-instance migration
// renders, read back. It took 12,186 allocations (about 122 per instance)
// on a 2-CPU machine when the count bound was set, so one more allocation
// per record fails it. The walker releases the arena at every record
// boundary, which brought the read from about 877,600 bytes to about
// 353,000; the byte bound fails if the arena grows with the design again.
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
	const reads = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, _, err := cd.ReadBytes(data, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	t.Logf("%d bytes per read", perRead)
	if perRead > 420000 {
		t.Errorf("ReadBytes allocates %d bytes, want <= 420000", perRead)
	}
}

// TestWriteAllocs pins the allocations of writing the source design a
// gen-100 migration keys its cache entry by (cd.Write into sha256). Each
// record is appended into the buffered writer's free space, so what is
// left is the writer and the sorted name lists: 6 allocations on a 2-CPU
// machine when the bound was set, where the fmt-based writer made 1,879.
// A record that outgrew the buffer's free space would reallocate it, one
// allocation per 4 KB of output, and fail the bound.
func TestWriteAllocs(t *testing.T) {
	d := workgen.Schematic(workgen.SchematicOptions{Instances: 100, Pages: 1 + 100/60, Seed: 42}).Design
	avg := testing.AllocsPerRun(5, func() {
		if err := cd.Write(io.Discard, d); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", avg)
	if avg > 8 {
		t.Errorf("Write makes %.0f allocations, want <= 8", avg)
	}
}

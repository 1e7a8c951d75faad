//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package phys

import (
	"fmt"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
)

// TestHPWLAllocs: HPWL keeps one running bounding box per net in a map
// sized for one net per instance, so its allocations do not grow with the
// pins of a net. On a placed chain of 64 cells (65 nets) it allocates the
// sorted instance names and the map: 4 objects. Appending every pin
// position to a per-net slice took 138.
func TestHPWLAllocs(t *testing.T) {
	lib := NewLibrary(testTech())
	if err := lib.AddMacro(testMacro("BUFX1")); err != nil {
		t.Fatal(err)
	}
	nl := netlist.New()
	buf := mustCell(nl, "BUFX1")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	top := mustCell(nl, "chip")
	const cells = 64
	for i := 0; i < cells; i++ {
		name := fmt.Sprintf("u%02d", i)
		top.AddInstance(name, "BUFX1")
		top.Connect(name, "A", fmt.Sprintf("n%02d", i))
		top.Connect(name, "Y", fmt.Sprintf("n%02d", i+1))
	}
	nl.Top = "chip"
	d, err := NewDesign("chip", geom.R(0, 0, 400, 200*cells), lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		d.Placements[fmt.Sprintf("u%02d", i)] = Placement{Pos: geom.Pt(40*(i%8), 20*(i/8))}
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := d.HPWL(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("HPWL allocates %.0f objects", avg)
	if avg > 8 {
		t.Errorf("HPWL allocates %.0f objects, want <= 8", avg)
	}
}

package place

import (
	"errors"
	"fmt"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/phys"
)

// mkDesign builds n buffer cells in a chain on the given die.
func mkDesign(t testing.TB, n int, die geom.Rect) *phys.Design {
	t.Helper()
	tech := phys.Tech{
		Name: "t",
		Layers: []phys.Layer{
			{Name: "M1", Dir: phys.Horizontal, Pitch: 10},
			{Name: "M2", Dir: phys.Vertical, Pitch: 10},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
	lib := phys.NewLibrary(tech)
	lib.AddMacro(&phys.Macro{
		Name: "BUF", Size: geom.Pt(40, 20), Site: "core",
		Pins: []*phys.Pin{
			{Name: "A", Dir: netlist.Input, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 8, 4, 12)}}},
			{Name: "Y", Dir: netlist.Output, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}}},
		},
	})
	nl := netlist.New()
	buf := mustCell(nl, "BUF")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	top := mustCell(nl, "chip")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("u%02d", i)
		top.AddInstance(name, "BUF")
		top.Connect(name, "A", fmt.Sprintf("n%02d", i))
		top.Connect(name, "Y", fmt.Sprintf("n%02d", i+1))
	}
	nl.Top = "chip"
	d, err := phys.NewDesign("chip", die, lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlaceLegalAndImproves(t *testing.T) {
	d := mkDesign(t, 12, geom.R(0, 0, 300, 200))
	res, err := Place(d, Options{Seed: 1, SwapPasses: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckPlacement(); err != nil {
		t.Fatalf("placement illegal: %v", err)
	}
	if res.FinalHPWL > res.InitialHPWL {
		t.Errorf("HPWL worsened: %d -> %d", res.InitialHPWL, res.FinalHPWL)
	}
	if res.Rows < 2 {
		t.Errorf("rows = %d, expected multi-row", res.Rows)
	}
	hp, _ := d.HPWL()
	if hp != res.FinalHPWL {
		t.Errorf("reported FinalHPWL %d != actual %d", res.FinalHPWL, hp)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	d1 := mkDesign(t, 10, geom.R(0, 0, 300, 200))
	d2 := mkDesign(t, 10, geom.R(0, 0, 300, 200))
	r1, err := Place(d1, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(d2, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalHPWL != r2.FinalHPWL {
		t.Errorf("nondeterministic: %d vs %d", r1.FinalHPWL, r2.FinalHPWL)
	}
	for name, p1 := range d1.Placements {
		if d2.Placements[name] != p1 {
			t.Errorf("instance %s placed differently", name)
		}
	}
}

func TestPlaceRespectsKeepouts(t *testing.T) {
	d := mkDesign(t, 6, geom.R(0, 0, 300, 200))
	ko := geom.R(80, 0, 160, 200)
	if _, err := Place(d, Options{Seed: 1, Keepouts: []geom.Rect{ko}}); err != nil {
		t.Fatal(err)
	}
	for name := range d.Placements {
		r, _ := d.InstanceRect(name)
		if inter, ok := r.Intersect(ko); ok && inter.Area() > 0 {
			t.Errorf("instance %s overlaps keepout: %v", name, r)
		}
	}
}

func TestPlaceDoesNotFit(t *testing.T) {
	d := mkDesign(t, 50, geom.R(0, 0, 100, 40)) // 2 rows x 2 cells
	if _, err := Place(d, Options{Seed: 1}); !errors.Is(err, ErrPlace) {
		t.Errorf("error = %v, want ErrPlace", err)
	}
}

func TestPlaceEmptyDesign(t *testing.T) {
	d := mkDesign(t, 0, geom.R(0, 0, 100, 100))
	res, err := Place(d, Options{})
	if err != nil || res.FinalHPWL != 0 {
		t.Errorf("empty: %v %v", res, err)
	}
}

func TestPlaceBadSiteHeight(t *testing.T) {
	d := mkDesign(t, 2, geom.R(0, 0, 100, 100))
	d.Lib.Tech.SiteHeight = 0
	if _, err := Place(d, Options{}); !errors.Is(err, ErrPlace) {
		t.Errorf("error = %v, want ErrPlace", err)
	}
}

func TestBFSOrderConnectivity(t *testing.T) {
	d := mkDesign(t, 8, geom.R(0, 0, 400, 200))
	names := d.TopCell().InstanceNames()
	order := newIndex(d, names).bfsOrder()
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	// Chain connectivity: consecutive cells in the chain should be close
	// in the BFS order. u03 and u04 share a net; their order distance must
	// be small.
	pos := map[string]int{}
	for i, n := range order {
		pos[names[n]] = i
	}
	if d := pos["u03"] - pos["u04"]; d > 3 || d < -3 {
		t.Errorf("chain neighbors far apart in order: %v", order)
	}
}

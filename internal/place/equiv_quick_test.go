package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/phys"
)

// quickPlaceDesign builds a random design for the equivalence property: a
// chain of n cells of three masters, two of one width and one wider, where
// each NAND2's second input cross-links to a random net of the chain (now
// and then its own output, so one instance has two pins on one net), on a
// die that is sometimes too small to hold them. The same seed builds the
// same design.
func quickPlaceDesign(t testing.TB, seed int64, n int) *phys.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tech := phys.Tech{
		Name: "t",
		Layers: []phys.Layer{
			{Name: "M1", Dir: phys.Horizontal, Pitch: 10},
			{Name: "M2", Dir: phys.Vertical, Pitch: 10},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
	lib := phys.NewLibrary(tech)
	shape := func(x0, y0 int) []phys.Shape {
		return []phys.Shape{{Layer: "M1", Rect: geom.R(x0, y0, x0+4, y0+4)}}
	}
	nl := netlist.New()
	masters := []struct {
		name string
		w    int
		pins []string
	}{
		{"BUF", 40, []string{"A", "Y"}},
		{"NAND2", 40, []string{"A", "B", "Y"}},
		{"DFF", 60, []string{"D", "Q"}},
	}
	for _, m := range masters {
		mac := &phys.Macro{Name: m.name, Size: geom.Pt(m.w, 20), Site: "core"}
		c := mustCell(nl, m.name)
		c.Primitive = true
		for k, p := range m.pins {
			dir := netlist.Input
			if k == len(m.pins)-1 {
				dir = netlist.Output
			}
			mac.Pins = append(mac.Pins, &phys.Pin{Name: p, Dir: dir, Shapes: shape(k*(m.w-4)/(len(m.pins)-1), 4+4*k)})
			c.AddPort(p, dir)
		}
		if err := lib.AddMacro(mac); err != nil {
			t.Fatal(err)
		}
	}
	top := mustCell(nl, "chip")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("u%02d", i)
		m := masters[rng.Intn(len(masters))]
		top.AddInstance(name, m.name)
		top.Connect(name, m.pins[0], fmt.Sprintf("n%02d", i))
		top.Connect(name, m.pins[len(m.pins)-1], fmt.Sprintf("n%02d", i+1))
		if len(m.pins) == 3 {
			top.Connect(name, m.pins[1], fmt.Sprintf("n%02d", rng.Intn(n+1)))
		}
	}
	nl.Top = "chip"
	die := geom.R(0, 0, 200+10*rng.Intn(61), 40+20*rng.Intn(11))
	d, err := phys.NewDesign("chip", die, lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// quickKeepouts draws up to k keepouts inside the die, each at most a third
// of it in each direction.
func quickKeepouts(rng *rand.Rand, die geom.Rect, k int) []geom.Rect {
	var out []geom.Rect
	for i := 0; i < k; i++ {
		x, y := rng.Intn(die.Dx()), rng.Intn(die.Dy())
		out = append(out, geom.R(x, y, x+1+rng.Intn(die.Dx()/3), y+1+rng.Intn(die.Dy()/3)))
	}
	return out
}

// TestQuickPlaceEquivalence: property test that the dense-index placer is
// identical to the parent's string-keyed one (refplace_test.go) on random
// chain and cross-link designs of 2–64 cells with 0–2 keepouts, random
// seeds and 0–6 swap passes: every placement, both HPWL figures, the swap
// and row counts, and the error and partial placements of a design that
// does not fit.
func TestQuickPlaceEquivalence(t *testing.T) {
	fits, misfits, swaps := 0, 0, 0
	prop := func(dseed, pseed int64, cells, kos, passes uint8) bool {
		n, k := 2+int(cells)%63, int(kos)%3
		opts := Options{Seed: pseed, SwapPasses: int(passes) % 7}
		want := quickPlaceDesign(t, dseed, n)
		got := quickPlaceDesign(t, dseed, n)
		opts.Keepouts = quickKeepouts(rand.New(rand.NewSource(dseed)), want.Die, k)
		wantRes, wantErr := refPlace(want, opts)
		gotRes, gotErr := Place(got, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Logf("design %d, %d cells, %+v: error %v, want %v", dseed, n, opts, gotErr, wantErr)
			return false
		}
		if wantErr == nil {
			fits++
			swaps += wantRes.Swaps
		} else {
			misfits++
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Logf("design %d, %d cells, %+v: result %+v, want %+v", dseed, n, opts, gotRes, wantRes)
			return false
		}
		if !reflect.DeepEqual(got.Placements, want.Placements) {
			t.Logf("design %d, %d cells, %+v: placements differ", dseed, n, opts)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d designs fit with %d swaps in all, %d did not", fits, swaps, misfits)
	if fits == 0 || misfits == 0 {
		t.Errorf("%d designs fit and %d did not; the property needs both", fits, misfits)
	}
}

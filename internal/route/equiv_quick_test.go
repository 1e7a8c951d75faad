package route

import (
	"reflect"
	"testing"
	"testing/quick"

	"cadinterop/internal/geom"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/workgen"
)

// routedView is the comparable part of a Result.
type routedView struct {
	Wirelength  int
	Vias        int
	Failed      []string
	FailReasons []string
	ShieldLen   int
	Audit       []Violation
}

func view(res *Result, rules map[string]Rule) routedView {
	return routedView{
		Wirelength:  res.Wirelength,
		Vias:        res.Vias,
		Failed:      res.Failed,
		FailReasons: res.FailReasons,
		ShieldLen:   res.ShieldLen,
		Audit:       Audit(res, rules),
	}
}

// TestQuickRouterEquivalence: property test that the interned-ID router is
// byte-identical to the retained string-reference implementation
// (refroute_test.go) on random workgen designs, with and without the
// congestion-aware cost (Options.PlainBFS) — wirelength, vias, failures,
// shield length, the full DRC audit, and every decoded grid cell, the one
// record of the routed wires. Fixed inputs that reach a cut rip-up attempt
// run first.
func TestQuickRouterEquivalence(t *testing.T) {
	prop := func(seed uint16, cells, crit, kos uint8, plain bool) bool {
		c, d, opts := quickDesign(t, seed, cells, crit, kos, plain)
		rules := opts.Rules
		ref, err := refRoute(d, opts)
		if err != nil {
			t.Fatalf("refRoute %+v: %v", c, err)
		}
		want := routedView{
			Wirelength:  ref.Wirelength,
			Vias:        ref.Vias,
			Failed:      ref.Failed,
			FailReasons: ref.FailReasons,
			ShieldLen:   ref.ShieldLen,
			Audit:       refAudit(ref, rules),
		}
		got, err := Route(d, opts)
		if err != nil {
			t.Fatalf("Route %+v: %v", c, err)
		}
		if gv := view(got, rules); !reflect.DeepEqual(gv, want) {
			t.Logf("case %+v plain=%v diverges from string reference:\nref: %+v\ngot: %+v", c, plain, want, gv)
			return false
		}
		// Every decoded cell of the interned grid must match the string
		// grid exactly — markers, sentinels and all.
		g, rg := got.grid, ref.grid
		if g.W != rg.W || g.H != rg.H {
			t.Logf("case %+v plain=%v: grid size %dx%d vs ref %dx%d", c, plain, g.W, g.H, rg.W, rg.H)
			return false
		}
		for l := 0; l < 2; l++ {
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W; x++ {
					if g.Owner(l, x, y) != rg.owner(l, x, y) {
						t.Logf("case %+v plain=%v: cell (%d,%d,%d) = %q, ref %q",
							c, plain, l, x, y, g.Owner(l, x, y), rg.owner(l, x, y))
						return false
					}
				}
			}
		}
		return true
	}
	for _, c := range ripupCutCases {
		if !prop(c.seed, c.cells, c.crit, c.kos, c.plain) {
			t.Errorf("fixed case %+v diverges from the string reference", c)
		}
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// quickDesign builds and places the workgen design of one
// TestQuickRouterEquivalence input and returns it with the options it is
// routed under: pitch 5, the floorplan's rules and keepouts.
func quickDesign(t testing.TB, seed uint16, cells, crit, kos uint8, plain bool) (workgen.PhysOptions, *phys.Design, Options) {
	t.Helper()
	c := workgen.PhysOptions{
		Cells:        8 + int(cells)%25,
		Seed:         int64(seed),
		CriticalNets: int(crit) % 5,
		Keepouts:     int(kos) % 3,
	}
	d, fp, err := workgen.PhysDesign(c)
	if err != nil {
		t.Fatalf("workgen %+v: %v", c, err)
	}
	if _, err := place.Place(d, place.Options{Seed: 5}); err != nil {
		t.Fatalf("place %+v: %v", c, err)
	}
	rules := make(map[string]Rule, len(fp.NetRules))
	for _, r := range fp.NetRules {
		w := r.WidthTracks
		if w < 1 {
			w = 1
		}
		rules[r.Net] = Rule{WidthTracks: w, SpacingTracks: r.SpacingTracks, Shield: r.Shield}
	}
	var kosR []geom.Rect
	for _, k := range fp.Keepouts {
		kosR = append(kosR, k.Rect)
	}
	return c, d, Options{Pitch: 5, Rules: rules, Keepouts: kosR, PlainBFS: plain}
}

// ripupCutCases are TestQuickRouterEquivalence inputs on which Route ends
// rip-up attempts early. Each leaves nets unrouted on the first pass, and
// later attempts reach the best attempt's failure count before their last
// net. An attempt cut one failure sooner, or a first pass cut at all,
// changes the result on every one of them.
var ripupCutCases = []struct {
	seed             uint16
	cells, crit, kos uint8
	plain            bool
}{
	{seed: 3, cells: 0, crit: 3, kos: 0},
	{seed: 4, cells: 4, crit: 4, kos: 1, plain: true},
	{seed: 14, cells: 0, crit: 4, kos: 2},
}

// TestReservedNetNames: the interning bugfix — user net names colliding
// with the reserved marker vocabulary are rejected at Route time instead of
// silently aliasing keepouts or marker cells.
func TestReservedNetNames(t *testing.T) {
	for _, name := range []string{"", "#", "?q", "!shield", "~halo", "#x"} {
		if err := checkNetName(name); err == nil {
			t.Errorf("checkNetName(%q) = nil, want error", name)
		}
	}
	for _, name := range []string{"clk", "n1", "a#b", "x?"} {
		if err := checkNetName(name); err != nil {
			t.Errorf("checkNetName(%q) = %v, want nil", name, err)
		}
	}
}

package route

import (
	"fmt"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/phys"
)

// chainDesign builds a row of n buffers, each output feeding the next
// input, placed on a 400x200 die.
func chainDesign(t testing.TB, n int) *phys.Design {
	t.Helper()
	tech := phys.Tech{
		Name: "t",
		Layers: []phys.Layer{
			{Name: "M1", Dir: phys.Horizontal, Pitch: 10, MinWidth: 4, MinSpace: 4},
			{Name: "M2", Dir: phys.Vertical, Pitch: 10, MinWidth: 4, MinSpace: 4},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
	lib := phys.NewLibrary(tech)
	lib.AddMacro(&phys.Macro{
		Name: "BUF", Size: geom.Pt(40, 20), Site: "core",
		Pins: []*phys.Pin{
			{Name: "A", Dir: netlist.Input, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 8, 4, 12)}}, Access: phys.AccessWest},
			{Name: "Y", Dir: netlist.Output, Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}}, Access: phys.AccessEast},
		},
	})
	nl := netlist.New()
	buf := mustCell(nl, "BUF")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	top := mustCell(nl, "chip")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("u%d", i)
		top.AddInstance(name, "BUF")
		top.Connect(name, "A", fmt.Sprintf("n%d", i))
		top.Connect(name, "Y", fmt.Sprintf("n%d", i+1))
	}
	nl.Top = "chip"
	d, err := phys.NewDesign("chip", geom.R(0, 0, 400, 200), lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	// Place in two rows of up to 5.
	for i := 0; i < n; i++ {
		row := i / 5
		col := i % 5
		d.Placements[fmt.Sprintf("u%d", i)] = phys.Placement{Pos: geom.Pt(col*60, row*40)}
	}
	return d
}

func TestRouteChain(t *testing.T) {
	d := chainDesign(t, 6)
	res, err := Route(d, Options{Pitch: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	// n1..n5 connect consecutive buffers (n0 and n6 are single-pin).
	for i := 1; i <= 5; i++ {
		net := fmt.Sprintf("n%d", i)
		if len(res.Segments[net]) == 0 {
			t.Errorf("net %s has no segments", net)
		}
	}
	if res.Wirelength == 0 || res.Vias == 0 {
		t.Errorf("wirelength=%d vias=%d", res.Wirelength, res.Vias)
	}
}

func TestRouteHonorsWidthRule(t *testing.T) {
	d := chainDesign(t, 4)
	rules := map[string]Rule{"n2": {WidthTracks: 3}}
	res, err := Route(d, Options{Pitch: 10, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if w := res.actualMinWidth("n2"); w < 3 {
		t.Errorf("n2 width = %d, want >= 3", w)
	}
	// Audit against the same rules: clean.
	if vs := Audit(res, rules); len(vs) != 0 {
		t.Errorf("audit: %v", vs)
	}
}

func TestAuditCatchesDroppedWidthRule(t *testing.T) {
	d := chainDesign(t, 4)
	full := map[string]Rule{"n2": {WidthTracks: 3}}
	// Route WITHOUT the rule — the §4 scenario where the tool dialect
	// cannot express width.
	res, err := Route(d, Options{Pitch: 10})
	if err != nil {
		t.Fatal(err)
	}
	vs := Audit(res, full)
	found := false
	for _, v := range vs {
		if v.Net == "n2" && v.Kind == "width" {
			found = true
		}
	}
	if !found {
		t.Errorf("audit missed the dropped width rule: %v", vs)
	}
}

func TestRouteShield(t *testing.T) {
	d := chainDesign(t, 4)
	rules := map[string]Rule{"n2": {WidthTracks: 1, Shield: true}}
	res, err := Route(d, Options{Pitch: 10, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShieldLen == 0 {
		t.Error("no shield wires added")
	}
	if cov := res.shieldCoverage("n2"); cov < 0.9 {
		t.Errorf("shield coverage = %v", cov)
	}
	if vs := Audit(res, rules); len(vs) != 0 {
		t.Errorf("audit: %v", vs)
	}
	// Without shielding the audit flags it.
	res2, err := Route(d, Options{Pitch: 10})
	if err != nil {
		t.Fatal(err)
	}
	vs := Audit(res2, rules)
	found := false
	for _, v := range vs {
		if v.Kind == "shield" {
			found = true
		}
	}
	if !found {
		t.Errorf("audit missed missing shield: %v", vs)
	}
}

func TestRouteKeepouts(t *testing.T) {
	d := chainDesign(t, 2)
	// Wall between the two buffers with a gap at the top.
	keepout := geom.R(45, 0, 55, 180)
	res, err := Route(d, Options{Pitch: 10, Keepouts: []geom.Rect{keepout}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	// The route for n1 must not pass through the keepout: every segment
	// endpoint in grid coords must avoid blocked cells.
	g := res.grid
	for _, seg := range res.Segments["n1"] {
		for _, p := range []geom.Point{seg.A, seg.B} {
			if g.Owner(seg.Layer, p.X, p.Y) == "#" {
				t.Errorf("segment endpoint %v inside keepout", p)
			}
		}
	}
}

func TestRouteUnroutable(t *testing.T) {
	d := chainDesign(t, 2)
	// Full wall: no gap anywhere.
	res, err := Route(d, Options{Pitch: 10, Keepouts: []geom.Rect{geom.R(45, 0, 55, 210)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) == 0 {
		t.Error("expected unroutable net")
	}
	vs := Audit(res, map[string]Rule{res.Failed[0]: {WidthTracks: 2}})
	if len(vs) == 0 || vs[0].Kind != "unrouted" {
		t.Errorf("audit = %v", vs)
	}
}

func TestCouplingRun(t *testing.T) {
	d := chainDesign(t, 10)
	res, err := Route(d, Options{Pitch: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Coupling exists somewhere in a 2-row design; the function must be
	// deterministic and non-negative.
	_, run1 := res.CouplingRun("n3")
	_, run2 := res.CouplingRun("n3")
	if run1 != run2 {
		t.Error("CouplingRun not deterministic")
	}
	if run1 < 0 {
		t.Error("negative run")
	}
}

func TestSpacingRuleSeparatesNets(t *testing.T) {
	d := chainDesign(t, 10)
	rules := map[string]Rule{"n5": {WidthTracks: 1, SpacingTracks: 2}}
	res, err := Route(d, Options{Pitch: 5, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if c := res.minClearance("n5", 2); c <= 2 {
		t.Errorf("clearance = %d, want > 2", c)
	}
	if vs := Audit(res, rules); len(vs) != 0 {
		t.Errorf("audit: %v", vs)
	}
}

func TestGridBounds(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 100, 100), 10)
	if g.Owner(0, -1, 0) != "#" || g.Owner(1, 0, 999) != "#" {
		t.Error("out-of-bounds should read blocked")
	}
	x := g.tab.intern("x")
	if g.Owner(0, 5, 5) != "" {
		t.Error("fresh grid cell should be empty")
	}
	g.set(0, 5, 5, x)
	if g.Owner(0, 5, 5) != "x" {
		t.Error("set/get broken")
	}
	g.set(0, -1, -1, x) // must not panic
}

// TestPinAdjacencyAtBorders: the pin-adjacency flag reservePins stores
// per cell must agree with the reference router's five-probe refNearPin
// on every cell, for pins on each corner, on each edge and outside the
// die. The random designs of the equivalence suite rarely put pins on the
// border.
func TestPinAdjacencyAtBorders(t *testing.T) {
	die := geom.R(0, 0, 100, 60) // 11×7 cells at pitch 10
	opts := Options{Pitch: 10}
	d := &phys.Design{Die: die}
	const w, h = 11, 7
	cases := []struct {
		name string
		pins map[string][]geom.Point
	}{
		{"corner-origin", map[string][]geom.Point{"a": {geom.Pt(0, 0)}}},
		{"corner-x-max", map[string][]geom.Point{"a": {geom.Pt(w-1, 0)}}},
		{"corner-y-max", map[string][]geom.Point{"a": {geom.Pt(0, h-1)}}},
		{"corner-far", map[string][]geom.Point{"a": {geom.Pt(w-1, h-1)}}},
		{"edge-bottom", map[string][]geom.Point{"a": {geom.Pt(5, 0)}}},
		{"edge-top", map[string][]geom.Point{"a": {geom.Pt(5, h-1)}}},
		{"edge-left", map[string][]geom.Point{"a": {geom.Pt(0, 3)}}},
		{"edge-right", map[string][]geom.Point{"a": {geom.Pt(w-1, 3)}}},
		{"outside-left", map[string][]geom.Point{"a": {geom.Pt(-1, 3)}}},
		{"outside-right", map[string][]geom.Point{"a": {geom.Pt(w, 3)}}},
		{"outside-below", map[string][]geom.Point{"a": {geom.Pt(5, -1)}}},
		{"outside-above", map[string][]geom.Point{"a": {geom.Pt(5, h)}}},
		{"outside-corners", map[string][]geom.Point{"a": {geom.Pt(-1, -1), geom.Pt(w, h)}}},
		{"all-corners-two-nets", map[string][]geom.Point{
			"a": {geom.Pt(0, 0), geom.Pt(w-1, h-1)},
			"b": {geom.Pt(w-1, 0), geom.Pt(0, h-1)},
		}},
		{"adjacent-pads", map[string][]geom.Point{
			"a": {geom.Pt(0, 1), geom.Pt(1, 1)},
			"b": {geom.Pt(0, 2), geom.Pt(-1, 2)},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := refFreshGrid(d, opts, c.pins)
			g := freshGrid(d, opts, c.pins)
			if g.W != w || g.H != h {
				t.Fatalf("grid is %d×%d, want %d×%d", g.W, g.H, w, h)
			}
			for y := -1; y <= h; y++ {
				for x := -1; x <= w; x++ {
					if got, want := g.isPin(x, y), ref.isPin(x, y); got != want {
						t.Errorf("isPin(%d,%d) = %v, want %v", x, y, got, want)
					}
					if x < 0 || y < 0 || x >= w || y >= h {
						continue
					}
					got := g.pin[y*w+x]&pinNear != 0
					if want := refNearPin(ref, node{0, x, y}); got != want {
						t.Errorf("near-pin flag at (%d,%d) = %v, want %v", x, y, got, want)
					}
				}
			}
		})
	}
}

package route

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/obs"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/workgen"
)

// incrementalCase builds a placed random design plus routing options the
// way the equivalence suite does.
func incrementalCase(t *testing.T, cells, crit, kos int, seed int64) (d *designCase, ok bool) {
	t.Helper()
	c := workgen.PhysOptions{Cells: cells, Seed: seed, CriticalNets: crit, Keepouts: kos}
	pd, fp, err := workgen.PhysDesign(c)
	if err != nil {
		t.Fatalf("workgen %+v: %v", c, err)
	}
	if _, err := place.Place(pd, place.Options{Seed: 5}); err != nil {
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
	return &designCase{d: pd, rules: rules, keepouts: kosR}, true
}

type designCase struct {
	d        *phys.Design
	rules    map[string]Rule
	keepouts []geom.Rect
}

// moveInstance nudges one movable instance by (dx, dy) DBU, clamped to the
// die, and returns the union of its old and new footprints — the dirty
// rectangle an editor would report for a component replacement.
func (c *designCase) moveInstance(t *testing.T, pick int, dx, dy int) (geom.Rect, bool) {
	t.Helper()
	names := c.d.TopCell().InstanceNames()
	if len(names) == 0 {
		return geom.Rect{}, false
	}
	inst := names[pick%len(names)]
	old, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatalf("InstanceRect(%s): %v", inst, err)
	}
	pl := c.d.Placements[inst]
	np := pl.Pos.Add(geom.Pt(dx, dy))
	die := c.d.Die
	w, h := old.Dx(), old.Dy()
	if np.X < die.Min.X {
		np.X = die.Min.X
	}
	if np.Y < die.Min.Y {
		np.Y = die.Min.Y
	}
	if np.X+w > die.Max.X {
		np.X = die.Max.X - w
	}
	if np.Y+h > die.Max.Y {
		np.Y = die.Max.Y - h
	}
	pl.Pos = np
	c.d.Placements[inst] = pl
	nu, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatalf("InstanceRect(%s) after move: %v", inst, err)
	}
	return old.Union(nu), true
}

func (c *designCase) opts() Options {
	return Options{Pitch: 5, Rules: c.rules, Keepouts: c.keepouts}
}

// checkIncrementalIdentity routes the edited design both ways and demands
// full byte identity: the routedView fields, the DRC audit, and every
// decoded grid cell.
func checkIncrementalIdentity(t *testing.T, c *designCase, inc, full *Result, label string) bool {
	t.Helper()
	iv, fv := view(inc, c.rules), view(full, c.rules)
	if !reflect.DeepEqual(iv, fv) {
		t.Logf("%s: incremental view diverges\nfull: %+v\ninc:  %+v (fallback=%q rerouted=%v)",
			label, fv, iv, inc.IncrementalFallback, inc.ReroutedNets)
		return false
	}
	gi, gf := inc.grid, full.grid
	if gi.W != gf.W || gi.H != gf.H {
		t.Logf("%s: grid size %dx%d vs full %dx%d", label, gi.W, gi.H, gf.W, gf.H)
		return false
	}
	for l := 0; l < 2; l++ {
		for y := 0; y < gi.H; y++ {
			for x := 0; x < gi.W; x++ {
				if gi.Owner(l, x, y) != gf.Owner(l, x, y) {
					t.Logf("%s: cell (%d,%d,%d) = %q, full %q (fallback=%q rerouted=%v)",
						label, l, x, y, gi.Owner(l, x, y), gf.Owner(l, x, y),
						inc.IncrementalFallback, inc.ReroutedNets)
					return false
				}
			}
		}
	}
	return true
}

// TestQuickIncrementalEquivalence: property test that RouteIncremental is
// byte-identical to a full Route after a random single-instance move,
// including a second chained edit on top of the incremental result. Every
// net the replay reroutes is committed by commitPaths, so this also pins
// the commit path against the full router. Fallback cases count as passes
// only because they literally run the full router; the incremental path
// itself is pinned non-vacuous by TestIncrementalPathRuns.
func TestQuickIncrementalEquivalence(t *testing.T) {
	prop := func(seed uint16, cells, crit, kos, pick, move uint8) bool {
		c, _ := incrementalCase(t, 8+int(cells)%25, int(crit)%5, int(kos)%3, int64(seed))
		prev, err := Route(c.d, c.opts())
		if err != nil {
			t.Fatalf("full route: %v", err)
		}
		for edit := 0; edit < 2; edit++ {
			dx := (int(move)%5 - 2) * 10
			dy := (int(move/5)%5 - 2) * 10
			if dx == 0 && dy == 0 {
				dx = 10
			}
			dirty, ok := c.moveInstance(t, int(pick)+edit, dx, dy)
			if !ok {
				return true
			}
			full, err := Route(c.d, c.opts())
			if err != nil {
				t.Fatalf("full route after edit: %v", err)
			}
			inc, err := RouteIncremental(prev, c.d, dirty, c.opts())
			if err != nil {
				t.Fatalf("RouteIncremental: %v", err)
			}
			if !checkIncrementalIdentity(t, c, inc, full, "edit") {
				return false
			}
			// The incremental path must only ever reroute nets — survivors
			// keep their exact segment slices.
			if inc.IncrementalFallback == "" {
				rr := make(map[string]bool, len(inc.ReroutedNets))
				for _, n := range inc.ReroutedNets {
					rr[n] = true
				}
				for n := range prev.Segments {
					if !rr[n] && len(inc.Segments[n]) != len(prev.Segments[n]) {
						t.Logf("survivor %s segments changed", n)
						return false
					}
				}
			}
			prev = inc // chain the next edit on the incremental result
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// sparsePairs builds a k×k grid of well-separated buffer pairs, each pair
// joined by one short net. The searches' probe diamonds stay local, so an
// edit to one pair provably cannot have been observed by the others — the
// regime where incremental reroute is designed to win.
func sparsePairs(t *testing.T, k int) *designCase {
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
	for i := 0; i < k*k; i++ {
		a, b := fmt.Sprintf("p%02da", i), fmt.Sprintf("p%02db", i)
		top.AddInstance(a, "BUF")
		top.AddInstance(b, "BUF")
		top.Connect(a, "A", fmt.Sprintf("in%02d", i))
		top.Connect(a, "Y", fmt.Sprintf("mid%02d", i))
		top.Connect(b, "A", fmt.Sprintf("mid%02d", i))
		top.Connect(b, "Y", fmt.Sprintf("out%02d", i))
	}
	nl.Top = "chip"
	const span = 800 // DBU between pairs: 80 grid cells at pitch 10
	d, err := phys.NewDesign("chip", geom.R(0, 0, (k+1)*span, (k+1)*span), lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k*k; i++ {
		x, y := (i%k+1)*span, (i/k+1)*span
		d.Placements[fmt.Sprintf("p%02da", i)] = phys.Placement{Pos: geom.Pt(x, y)}
		d.Placements[fmt.Sprintf("p%02db", i)] = phys.Placement{Pos: geom.Pt(x+60, y)}
	}
	return &designCase{d: d}
}

func (c *designCase) sparseOpts() Options {
	return Options{Pitch: 10}
}

// TestIncrementalPathRuns: on a sparse design with a one-pair nudge the
// incremental path must actually engage — no fallback — and rip up only
// the touched pair's nets. This keeps the equivalence property above
// non-vacuous.
func TestIncrementalPathRuns(t *testing.T) {
	c := sparsePairs(t, 3)
	prev, err := Route(c.d, c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Failed) > 0 || !prev.pass0 {
		t.Fatalf("sparse baseline not clean on pass 0: failed=%v pass0=%v", prev.Failed, prev.pass0)
	}
	// Nudge the receiver of the center pair: only mid04 and out04 change.
	inst := "p04b"
	pl := c.d.Placements[inst]
	old, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatal(err)
	}
	pl.Pos = pl.Pos.Add(geom.Pt(20, 0))
	c.d.Placements[inst] = pl
	nu, err := c.d.InstanceRect(inst)
	if err != nil {
		t.Fatal(err)
	}
	dirty := old.Union(nu)

	full, err := Route(c.d, c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RouteIncremental(prev, c.d, dirty, c.sparseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if inc.IncrementalFallback != "" {
		t.Fatalf("incremental path fell back: %s", inc.IncrementalFallback)
	}
	if len(inc.ReroutedNets) == 0 || len(inc.ReroutedNets) >= len(prev.order)/2 {
		t.Fatalf("rerouted %d of %d nets (%v), want a small nonempty subset",
			len(inc.ReroutedNets), len(prev.order), inc.ReroutedNets)
	}
	if !checkIncrementalIdentity(t, c, inc, full, "nudge") {
		t.Fatal("incremental result diverges from full route")
	}
}

// TestIncrementalFallbacks: each soundness precondition must trip its
// named fallback and still produce a byte-identical (full-route) result.
func TestIncrementalFallbacks(t *testing.T) {
	c, _ := incrementalCase(t, 20, 2, 1, 3)
	prev, err := Route(c.d, c.opts())
	if err != nil {
		t.Fatal(err)
	}
	full, err := Route(c.d, c.opts())
	if err != nil {
		t.Fatal(err)
	}
	dirty := geom.R(0, 0, 10, 10)

	cases := []struct {
		name   string
		prev   *Result
		opts   Options
		reason string
	}{
		{"nil prev", nil, c.opts(), "no-previous"},
		{"foreign result", &Result{}, c.opts(), "no-previous"},
		{"options changed", prev, func() Options {
			o := c.opts()
			o.PlainBFS = true
			return o
		}(), "options-changed"},
		{"rotated order", func() *Result {
			r := *prev
			r.pass0 = false
			return &r
		}(), c.opts(), "prev-not-canonical"},
		{"failed prev", func() *Result {
			r := *prev
			r.Failed = []string{"x"}
			return &r
		}(), c.opts(), "prev-had-failures"},
	}
	for _, tc := range cases {
		got, err := RouteIncremental(tc.prev, c.d, dirty, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.IncrementalFallback != tc.reason {
			t.Errorf("%s: fallback = %q, want %q", tc.name, got.IncrementalFallback, tc.reason)
		}
		if tc.reason != "options-changed" {
			if !checkIncrementalIdentity(t, c, got, full, tc.name) {
				t.Errorf("%s: fallback result diverges from full route", tc.name)
			}
		}
	}
}

// TestSpecViewSemantics: a recording view must mask its own writes,
// record only fall-through reads, and mirror the live grid's out-of-bounds
// behaviour.
func TestSpecViewSemantics(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 100, 100), 10)
	a := g.tab.intern("a")
	b := g.tab.intern("b")
	x := g.tab.intern("x")
	g.set(0, 3, 3, a)
	v := newSpecView(g)
	if v.owner(0, -1, 0) != cellBlocked {
		t.Error("out-of-bounds should read blocked")
	}
	if len(v.reads) != 0 {
		t.Error("out-of-bounds reads must not be recorded")
	}
	if v.owner(0, 3, 3) != a {
		t.Error("fall-through read broken")
	}
	if len(v.reads) != 1 {
		t.Errorf("reads = %d, want 1", len(v.reads))
	}
	v.set(0, 3, 3, b)
	if v.owner(0, 3, 3) != b {
		t.Error("overlay write not visible to the view")
	}
	if g.Owner(0, 3, 3) != "a" {
		t.Error("overlay write leaked to the live grid")
	}
	if len(v.reads) != 1 {
		t.Error("overlay hits must not be recorded as reads")
	}
	v.set(1, -5, 0, x) // must not panic or corrupt the overlay
	if v.owner(1, 0, 0) != cellEmpty {
		t.Error("out-of-bounds overlay write corrupted a real cell")
	}
}

// TestSpecViewReuse: a view leased back from the pool must forget its
// previous overlay and read footprint entirely — the epoch bump must be as
// good as a fresh allocation.
func TestSpecViewReuse(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 100, 100), 10)
	a := g.tab.intern("a")
	v := newSpecView(g)
	v.set(0, 2, 2, a)
	v.owner(1, 7, 7)
	if len(v.reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(v.reads))
	}
	g.putView(v)
	v2 := newSpecView(g)
	if v2 != v {
		t.Skip("pool did not return the same view; nothing to check")
	}
	if len(v2.reads) != 0 {
		t.Error("recycled view kept its read footprint")
	}
	if v2.owner(0, 2, 2) != cellEmpty {
		t.Error("recycled view kept a stale overlay write")
	}
}

// TestOptionsFingerprint: table-driven stability contract for the route
// options fingerprint — ignored fields (the deprecated Workers, Metrics,
// rule map insertion order, keepout order, false SkipNets entries) must
// hash equal;
// every semantic flip must miss (ISSUE 7 satellite).
func TestOptionsFingerprint(t *testing.T) {
	base := func() Options {
		return Options{
			Pitch: 5,
			Rules: map[string]Rule{
				"clk": {WidthTracks: 2, SpacingTracks: 1, Shield: true},
				"rst": {WidthTracks: 1},
			},
			Keepouts: []geom.Rect{geom.R(0, 0, 10, 10), geom.R(20, 20, 30, 30)},
			SkipNets: map[string]bool{"vdd!": true, "gnd!": false},
		}
	}
	ref := base().Fingerprint()

	equal := map[string]Options{
		"workers": func() Options { o := base(); o.Workers = 8; return o }(),
		"metrics": func() Options { o := base(); o.Metrics = obs.NewRegistry(); return o }(),
		"keepout order": func() Options {
			o := base()
			o.Keepouts = []geom.Rect{geom.R(20, 20, 30, 30), geom.R(0, 0, 10, 10)}
			return o
		}(),
		"false skipnet dropped": func() Options {
			o := base()
			o.SkipNets = map[string]bool{"vdd!": true}
			return o
		}(),
		"pitch normalized": func() Options { o := base(); o.Pitch = 5; return o }(),
	}
	for name, o := range equal {
		if got := o.Fingerprint(); got != ref {
			t.Errorf("ignored field %q changed the fingerprint", name)
		}
	}
	zeroDefault := Options{Pitch: 0}
	tenDefault := Options{Pitch: 10}
	if zeroDefault.Fingerprint() != tenDefault.Fingerprint() {
		t.Error("Pitch 0 and Pitch 10 must hash equal (Route normalizes)")
	}

	flips := map[string]Options{
		"pitch":    func() Options { o := base(); o.Pitch = 7; return o }(),
		"plainbfs": func() Options { o := base(); o.PlainBFS = true; return o }(),
		"rule width": func() Options {
			o := base()
			o.Rules["clk"] = Rule{WidthTracks: 3, SpacingTracks: 1, Shield: true}
			return o
		}(),
		"rule spacing": func() Options {
			o := base()
			o.Rules["clk"] = Rule{WidthTracks: 2, SpacingTracks: 2, Shield: true}
			return o
		}(),
		"rule shield": func() Options { o := base(); o.Rules["clk"] = Rule{WidthTracks: 2, SpacingTracks: 1}; return o }(),
		"rule coupled": func() Options {
			o := base()
			o.Rules["clk"] = Rule{WidthTracks: 2, SpacingTracks: 1, Shield: true, MaxCoupledLen: 9}
			return o
		}(),
		"rule added":   func() Options { o := base(); o.Rules["d0"] = Rule{WidthTracks: 1}; return o }(),
		"rule dropped": func() Options { o := base(); delete(o.Rules, "rst"); return o }(),
		"keepout":      func() Options { o := base(); o.Keepouts[0] = geom.R(0, 0, 11, 10); return o }(),
		"keepout added": func() Options {
			o := base()
			o.Keepouts = append(o.Keepouts, geom.R(40, 40, 50, 50))
			return o
		}(),
		"skipnet": func() Options { o := base(); o.SkipNets["gnd!"] = true; return o }(),
	}
	seen := map[string]string{ref: "base"}
	for name, o := range flips {
		sum := o.Fingerprint()
		if prev, dup := seen[sum]; dup {
			t.Errorf("semantic flip %q collides with %q", name, prev)
		}
		seen[sum] = name
	}
}

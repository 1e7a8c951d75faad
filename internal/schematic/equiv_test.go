package schematic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cadinterop/internal/geom"
)

// randomDesign builds a one-cell design of one or two pages, each packed
// onto an 8×8 grid so that coincidences are the rule: T junctions,
// collinear overlapping wires, pins and labels on segment interiors,
// points repeated across wires, anchors off every wire, and connectors of
// every kind. Wires run Manhattan, diagonal and zero-length segments, and
// some have a single point.
func randomDesign(r *rand.Rand) *Design {
	const span = 8
	d := NewDesign("quick", geom.GridTenth)
	lib := d.EnsureLibrary("q")
	syms := []*Symbol{
		{Name: "two", View: "sym", Pins: []SymbolPin{
			{Name: "A", Pos: geom.Pt(0, 0)}, {Name: "B", Pos: geom.Pt(2, 0)}}},
		{Name: "three", View: "sym", Pins: []SymbolPin{
			{Name: "A", Pos: geom.Pt(0, 0)}, {Name: "B", Pos: geom.Pt(0, 2)}, {Name: "Y", Pos: geom.Pt(3, 1)}}},
	}
	for _, s := range syms {
		if err := lib.AddSymbol(s); err != nil {
			panic(err)
		}
	}
	var used []geom.Point
	pt := func() geom.Point {
		if len(used) > 0 && r.Intn(3) == 0 {
			return used[r.Intn(len(used))]
		}
		p := geom.Pt(r.Intn(span), r.Intn(span))
		used = append(used, p)
		return p
	}
	names := []string{"a", "b", "c", "VDD"}
	c := mustCell(d, "top")
	for pi, pages := 0, 1+r.Intn(2); pi < pages; pi++ {
		pg := c.AddPage(R00(span, span))
		for i, n := 0, r.Intn(10); i < n; i++ {
			cur := pt()
			w := &Wire{Points: []geom.Point{cur}}
			for k, m := 0, r.Intn(4); k < m; k++ {
				switch r.Intn(5) {
				case 0:
					cur.X = r.Intn(span) // horizontal, or zero-length
				case 1:
					cur.Y = r.Intn(span) // vertical, or zero-length
				case 2:
					cur = cur.Add(geom.Pt(1+r.Intn(2), 1-2*r.Intn(2))) // diagonal
				case 3:
					cur = pt() // anywhere, often a point already drawn
				case 4: // zero-length
				}
				w.Points = append(w.Points, cur)
			}
			pg.Wires = append(pg.Wires, w)
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			sym := syms[r.Intn(len(syms))]
			inst := &Instance{
				Name:      fmt.Sprintf("p%du%d", pi, i),
				Sym:       sym.Key(),
				Placement: geom.Transform{Orient: geom.Orientation(r.Intn(8)), Offset: pt()},
			}
			if err := pg.AddInstance(inst); err != nil {
				panic(err)
			}
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			pg.Labels = append(pg.Labels, &Label{Text: names[r.Intn(len(names))], At: pt()})
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			pg.Conns = append(pg.Conns, &Connector{
				Kind: ConnKind(r.Intn(int(ConnGlobal) + 1)),
				Name: names[r.Intn(len(names))],
				At:   pt(),
			})
		}
	}
	d.Top = "top"
	return d
}

// TestQuickExtractEquivalence: property test that the indexed extraction
// matches the retained reference (refextract_test.go) on random pages:
// every page's groups in the order Extract consumes them (anchor, wire
// flag, labels, connectors and pins), and every floating wire end.
func TestQuickExtractEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		d := randomDesign(rand.New(rand.NewSource(seed)))
		c := d.Cells["top"]
		for pi, pg := range c.Pages {
			got, err := extractPage(d, pg)
			if err != nil {
				t.Fatalf("seed %d page %d: %v", seed, pi, err)
			}
			want, err := refPageGroups(d, pg)
			if err != nil {
				t.Fatalf("seed %d page %d: reference: %v", seed, pi, err)
			}
			if !reflect.DeepEqual(groupValues(got), groupValues(want)) {
				t.Logf("seed %d page %d: groups differ\ngot  %+v\nwant %+v", seed, pi, groupValues(got), groupValues(want))
				return false
			}
		}
		got, err := FloatingEnds(d, c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := refFloatingEnds(d, c)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: floating ends differ\ngot  %+v\nwant %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// groupValues dereferences a page's groups, so an empty page compares
// equal however its slice was made.
func groupValues(gs []*pageNet) []pageNet {
	out := make([]pageNet, len(gs))
	for i, g := range gs {
		out[i] = *g
	}
	return out
}

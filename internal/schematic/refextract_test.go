package schematic

// A retained copy of connectivity extraction as it was before the segment
// index: a union-find keyed by a map of points, every anchor tested
// against every segment of its page, groups ordered by one pass over the
// group map per sorted anchor, and FloatingEnds scanning every segment of
// every other wire for each candidate end. It is the reference the
// indexed extraction is proven against (equiv_test.go): extractPage must
// return the same groups in the same order, and FloatingEnds the same
// ends. It keeps its own copy of onSegment, so a change to the production
// predicate shows as a difference. It lives in a _test.go file so no dead
// code ships.

import (
	"fmt"
	"sort"

	"cadinterop/internal/geom"
)

type refPointSet struct {
	parent map[geom.Point]geom.Point
}

func refNewPointSet() *refPointSet {
	return &refPointSet{parent: make(map[geom.Point]geom.Point)}
}

func (ps *refPointSet) add(p geom.Point) {
	if _, ok := ps.parent[p]; !ok {
		ps.parent[p] = p
	}
}

func (ps *refPointSet) find(p geom.Point) geom.Point {
	ps.add(p)
	root := p
	for ps.parent[root] != root {
		root = ps.parent[root]
	}
	for ps.parent[p] != root {
		ps.parent[p], p = root, ps.parent[p]
	}
	return root
}

func (ps *refPointSet) union(a, b geom.Point) {
	ra, rb := ps.find(a), ps.find(b)
	if ra != rb {
		ps.parent[ra] = rb
	}
}

func refOnSegment(p, a, b geom.Point) bool {
	if a.X == b.X { // vertical
		lo, hi := a.Y, b.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		return p.X == a.X && p.Y >= lo && p.Y <= hi
	}
	if a.Y == b.Y { // horizontal
		lo, hi := a.X, b.X
		if lo > hi {
			lo, hi = hi, lo
		}
		return p.Y == a.Y && p.X >= lo && p.X <= hi
	}
	return false
}

func refExtractPage(d *Design, pg *Page) (map[geom.Point]*pageNet, error) {
	ps := refNewPointSet()
	// All points of a wire are common.
	for _, w := range pg.Wires {
		for i := 0; i < len(w.Points); i++ {
			ps.add(w.Points[i])
			if i > 0 {
				ps.union(w.Points[i-1], w.Points[i])
			}
		}
	}
	// Anchor points (pins, labels, connectors) join any segment they lie on,
	// and wire endpoints joining other wires' segments make T junctions.
	var anchors []geom.Point
	for _, w := range pg.Wires {
		anchors = append(anchors, w.Points...)
	}
	for _, in := range pg.InstanceNames() {
		inst := pg.Instances[in]
		sym, ok := d.Symbol(inst.Sym)
		if !ok {
			return nil, fmt.Errorf("%w: symbol %s for instance %q", ErrNotFound, inst.Sym, in)
		}
		for _, p := range sym.Pins {
			anchors = append(anchors, inst.Placement.Apply(p.Pos))
		}
	}
	for _, l := range pg.Labels {
		anchors = append(anchors, l.At)
	}
	for _, c := range pg.Conns {
		anchors = append(anchors, c.At)
	}
	for _, a := range anchors {
		ps.add(a)
		for _, w := range pg.Wires {
			for i := 0; i+1 < len(w.Points); i++ {
				if refOnSegment(a, w.Points[i], w.Points[i+1]) {
					ps.union(a, w.Points[i])
				}
			}
		}
	}

	groups := make(map[geom.Point]*pageNet)
	get := func(p geom.Point) *pageNet {
		root := ps.find(p)
		g, ok := groups[root]
		if !ok {
			g = &pageNet{anchor: p}
			groups[root] = g
		}
		if less(p, g.anchor) {
			g.anchor = p
		}
		return g
	}
	for _, w := range pg.Wires {
		if len(w.Points) > 0 {
			get(w.Points[0]).hasWire = true
		}
	}
	for _, l := range pg.Labels {
		g := get(l.At)
		g.labels = append(g.labels, l.Text)
	}
	for _, c := range pg.Conns {
		g := get(c.At)
		g.conns = append(g.conns, c)
	}
	for _, in := range pg.InstanceNames() {
		inst := pg.Instances[in]
		sym, _ := d.Symbol(inst.Sym)
		for _, p := range sym.Pins {
			abs := inst.Placement.Apply(p.Pos)
			// An unconnected pin forms no group unless something else is
			// at the same point.
			root := ps.find(abs)
			g, ok := groups[root]
			if !ok {
				g = &pageNet{anchor: abs}
				groups[root] = g
			}
			g.pins = append(g.pins, pinRef{inst: in, pin: p.Name})
		}
	}
	return groups, nil
}

// refPageGroups is refExtractPage followed by the ordering Extract applied
// to its result.
func refPageGroups(d *Design, pg *Page) ([]*pageNet, error) {
	groups, err := refExtractPage(d, pg)
	if err != nil {
		return nil, err
	}
	// Deterministic order by anchor.
	keys := make([]geom.Point, 0, len(groups))
	for k := range groups {
		keys = append(keys, groups[k].anchor)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	seen := make(map[*pageNet]bool)
	ordered := make([]*pageNet, 0, len(groups))
	for _, k := range keys {
		for _, g := range groups {
			if g.anchor == k && !seen[g] {
				seen[g] = true
				ordered = append(ordered, g)
			}
		}
	}
	return ordered, nil
}

func refFloatingEnds(d *Design, c *Cell) ([]FloatingEnd, error) {
	var out []FloatingEnd
	for pi, pg := range c.Pages {
		// Build the set of "anchored" points: pins, connectors, labels.
		anchored := make(map[geom.Point]bool)
		for _, in := range pg.InstanceNames() {
			inst := pg.Instances[in]
			sym, ok := d.Symbol(inst.Sym)
			if !ok {
				continue // unknown symbol: its pins cannot anchor wires
			}
			for _, p := range sym.Pins {
				anchored[inst.Placement.Apply(p.Pos)] = true
			}
		}
		for _, cn := range pg.Conns {
			anchored[cn.At] = true
		}
		// Count endpoint occupancy across wires.
		occupancy := make(map[geom.Point]int)
		for _, w := range pg.Wires {
			if len(w.Points) < 2 {
				continue
			}
			occupancy[w.Points[0]]++
			occupancy[w.Points[len(w.Points)-1]]++
		}
		for wi, w := range pg.Wires {
			if len(w.Points) < 2 {
				continue
			}
			for _, end := range []geom.Point{w.Points[0], w.Points[len(w.Points)-1]} {
				if anchored[end] || occupancy[end] > 1 {
					continue
				}
				// Also not floating if it lands mid-segment of another wire.
				touches := false
				for wj, w2 := range pg.Wires {
					if wj == wi {
						continue
					}
					for i := 0; i+1 < len(w2.Points); i++ {
						if refOnSegment(end, w2.Points[i], w2.Points[i+1]) {
							touches = true
							break
						}
					}
					if touches {
						break
					}
				}
				if touches {
					continue
				}
				name := refWireNetName(pg, w)
				out = append(out, FloatingEnd{Page: pi, Wire: wi, Point: end, Net: name})
			}
		}
	}
	return out, nil
}

func refWireNetName(pg *Page, w *Wire) string {
	for _, l := range pg.Labels {
		for i := 0; i+1 < len(w.Points); i++ {
			if refOnSegment(l.At, w.Points[i], w.Points[i+1]) {
				return l.Text
			}
		}
	}
	return ""
}

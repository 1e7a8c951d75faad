package schematic

import (
	"fmt"
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
)

// Connectivity extraction. The drawing (wires, pins, labels, connectors) is
// resolved into electrical nets, producing a netlist.Netlist that the
// Section 2 verification step can compare independently of either tool.
//
// The dialects differ exactly where the paper says they do:
//   - the permissive source tool "connects same signal names across
//     multiple pages implicitly" (ImplicitCrossPage);
//   - the strict target tool "requires these connections to be explicit by
//     using off-page connectors" (RequireOffPage).

// ExtractOptions controls net resolution.
type ExtractOptions struct {
	// ImplicitCrossPage merges same-named nets across pages of a cell even
	// without off-page connectors (Viewlogic-like behaviour).
	ImplicitCrossPage bool
	// RequireOffPage merges nets across pages only when both sides carry an
	// off-page connector with the net's name (Cadence-like behaviour).
	RequireOffPage bool
	// AutoPrefix names anonymous nets; default "N$".
	AutoPrefix string
	// Bus, when set, canonicalizes label and connector names under the
	// tool's bus syntax before net matching, so that e.g. "A0" and "A<0>"
	// are the same net in a condensed-syntax tool but different nets in an
	// explicit-syntax tool.
	Bus *BusSyntax
}

// canonSyntax renders canonical net names: explicit ranges, postfix
// markers preserved verbatim.
var canonSyntax = BusSyntax{PostfixIndicators: true}

// canonName maps a written net name to its canonical electrical name under
// the syntax rules; unparseable names pass through unchanged.
func canonName(name string, syn *BusSyntax, known map[string]bool) string {
	if syn == nil {
		return name
	}
	ref, err := ParseBus(name, *syn, known)
	if err != nil {
		return name
	}
	out, err := FormatBus(ref, canonSyntax)
	if err != nil {
		return name
	}
	return out
}

// pointSet is a union-find over page points. Each point gets a dense ID the
// first time it is seen, so a visit costs one map lookup and find and
// union walk a slice.
type pointSet struct {
	id     map[geom.Point]int32
	parent []int32
}

func newPointSet() *pointSet {
	return &pointSet{id: make(map[geom.Point]int32)}
}

// add returns p's ID, assigning the next one if p is new.
func (ps *pointSet) add(p geom.Point) int32 {
	if id, ok := ps.id[p]; ok {
		return id
	}
	id := int32(len(ps.parent))
	ps.id[p] = id
	ps.parent = append(ps.parent, id)
	return id
}

func (ps *pointSet) find(id int32) int32 {
	root := id
	for ps.parent[root] != root {
		root = ps.parent[root]
	}
	for ps.parent[id] != root {
		ps.parent[id], id = root, ps.parent[id]
	}
	return root
}

func (ps *pointSet) union(a, b int32) {
	ra, rb := ps.find(a), ps.find(b)
	if ra != rb {
		ps.parent[ra] = rb
	}
}

// onSegment reports whether p lies on the Manhattan segment a-b.
func onSegment(p, a, b geom.Point) bool {
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

// segIndex buckets a page's wire segments by the line each lies on:
// vertical segments (zero-length ones included, as in onSegment's first
// branch) by X, horizontal ones by Y. A point can lie only on a segment of
// its own column or row, so those two buckets hold its only candidates,
// and onSegment still decides each. Non-Manhattan segments contain no
// point and are not indexed.
type segIndex struct {
	byX, byY map[int][]seg
}

// seg is one indexed segment and the index of its wire on the page.
type seg struct {
	a, b geom.Point
	wire int
}

func newSegIndex(wires []*Wire) segIndex {
	ix := segIndex{byX: make(map[int][]seg), byY: make(map[int][]seg)}
	for wi, w := range wires {
		for i := 0; i+1 < len(w.Points); i++ {
			a, b := w.Points[i], w.Points[i+1]
			switch {
			case a.X == b.X:
				ix.byX[a.X] = append(ix.byX[a.X], seg{a, b, wi})
			case a.Y == b.Y:
				ix.byY[a.Y] = append(ix.byY[a.Y], seg{a, b, wi})
			}
		}
	}
	return ix
}

// wiresAt appends to buf the wire of every segment that contains p, once
// per segment, and returns the extended slice.
func (ix segIndex) wiresAt(p geom.Point, buf []int) []int {
	for _, s := range ix.byX[p.X] {
		if onSegment(p, s.a, s.b) {
			buf = append(buf, s.wire)
		}
	}
	for _, s := range ix.byY[p.Y] {
		if onSegment(p, s.a, s.b) {
			buf = append(buf, s.wire)
		}
	}
	return buf
}

// pageNet is an intermediate per-page net group.
type pageNet struct {
	labels  []string
	conns   []*Connector
	pins    []pinRef
	anchor  geom.Point // deterministic naming anchor (min point)
	hasWire bool
}

type pinRef struct {
	inst string
	pin  string
}

// extractPage groups a page's geometry into electrical nodes, ordered by
// anchor.
func extractPage(d *Design, pg *Page) ([]*pageNet, error) {
	// Anchor points (pins, labels, connectors) join any segment they lie on,
	// and wire endpoints joining other wires' segments make T junctions.
	var anchors []geom.Point
	for _, w := range pg.Wires {
		anchors = append(anchors, w.Points...)
	}
	names := pg.InstanceNames()
	for _, in := range names {
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

	ps := newPointSet()
	// All points of a wire are common; the wire's first point stands for
	// it.
	wireID := make([]int32, len(pg.Wires))
	for wi, w := range pg.Wires {
		for i, p := range w.Points {
			id := ps.add(p)
			if i == 0 {
				wireID[wi] = id
			} else {
				ps.union(wireID[wi], id)
			}
		}
	}
	ix := newSegIndex(pg.Wires)
	var on []int
	for _, a := range anchors {
		id := ps.add(a)
		on = ix.wiresAt(a, on[:0])
		for _, wi := range on {
			ps.union(id, wireID[wi])
		}
	}

	// Groups by root ID. Every later choice depends on the partition
	// alone, so the union order above does not show in the result.
	groups := make([]*pageNet, len(ps.parent))
	var ordered []*pageNet
	group := func(p geom.Point) *pageNet {
		root := ps.find(ps.add(p))
		g := groups[root]
		if g == nil {
			g = &pageNet{anchor: p}
			groups[root] = g
			ordered = append(ordered, g)
		}
		return g
	}
	get := func(p geom.Point) *pageNet {
		g := group(p)
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
	for _, in := range names {
		inst := pg.Instances[in]
		sym, _ := d.Symbol(inst.Sym)
		for _, p := range sym.Pins {
			// An unconnected pin forms no group unless something else is
			// at the same point.
			g := group(inst.Placement.Apply(p.Pos))
			g.pins = append(g.pins, pinRef{inst: in, pin: p.Name})
		}
	}
	// An anchor is a point of its own group, so no two groups share one
	// and the order is total.
	sort.Slice(ordered, func(i, j int) bool { return less(ordered[i].anchor, ordered[j].anchor) })
	return ordered, nil
}

func less(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// netName decides a group's name: sorted labels first, then connector
// names, then a pin-derived auto name (stable across migrations, which
// relocate geometry but keep instance names), then the geometric fallback.
func (g *pageNet) netName(auto string) string {
	if len(g.labels) > 0 {
		ls := append([]string(nil), g.labels...)
		sort.Strings(ls)
		return ls[0]
	}
	if len(g.conns) > 0 {
		names := make([]string, 0, len(g.conns))
		for _, c := range g.conns {
			names = append(names, c.Name)
		}
		sort.Strings(names)
		return names[0]
	}
	if len(g.pins) > 0 {
		min := g.pins[0].inst + "." + g.pins[0].pin
		for _, p := range g.pins[1:] {
			if s := p.inst + "." + p.pin; s < min {
				min = s
			}
		}
		return "N$" + min
	}
	return auto
}

// isDangling reports whether the group is a single unconnected pin (or
// empty); such groups produce no net.
func (g *pageNet) isDangling() bool {
	return !g.hasWire && len(g.labels) == 0 && len(g.conns) == 0 && len(g.pins) <= 1
}

// Extract resolves the full design into a netlist. Each schematic cell
// becomes a netlist cell; symbols used by instances become primitive cells
// named "lib:name" unless a schematic cell of the same name exists, in which
// case the instance is hierarchical.
func Extract(d *Design, opts ExtractOptions) (*netlist.Netlist, error) {
	if opts.AutoPrefix == "" {
		opts.AutoPrefix = "N$"
	}
	nl := netlist.New()
	nl.Top = d.Top

	// Primitive masters on demand.
	ensureMaster := func(sym *Symbol) (string, error) {
		if _, ok := d.Cells[sym.Name]; ok {
			return sym.Name, nil // hierarchical reference
		}
		name := sym.Lib + ":" + sym.Name
		if _, ok := nl.Cell(name); ok {
			return name, nil
		}
		c, err := nl.AddCell(name)
		if err != nil {
			return "", err
		}
		c.Primitive = true
		for _, p := range sym.Pins {
			if err := c.AddPort(p.Name, p.Dir); err != nil {
				return "", err
			}
		}
		return name, nil
	}

	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		knownBuses := CollectBusBases(c)
		nc, err := nl.AddCell(cn)
		if err != nil {
			return nil, err
		}
		for _, p := range c.Ports {
			if err := nc.AddPort(p.Name, p.Dir); err != nil {
				return nil, err
			}
		}

		// Per-page groups, then cross-page stitching by name.
		type namedGroup struct {
			page int
			name string
			g    *pageNet
			off  bool // has an off-page connector
		}
		var all []namedGroup
		auto := 0
		for pi, pg := range c.Pages {
			groups, err := extractPage(d, pg)
			if err != nil {
				return nil, err
			}
			for _, g := range groups {
				if g.isDangling() {
					continue
				}
				autoName := fmt.Sprintf("%s%d_%d", opts.AutoPrefix, pi+1, auto)
				auto++
				name := canonName(g.netName(autoName), opts.Bus, knownBuses)
				hasOff := false
				for _, conn := range g.conns {
					if conn.Kind == ConnOffPage {
						hasOff = true
					}
					// Hierarchy connectors also declare ports when the cell
					// interface does not list them yet.
					switch conn.Kind {
					case ConnHierIn, ConnHierOut, ConnHierBidir:
						if _, ok := nc.Port(conn.Name); !ok {
							dir := netlist.Input
							if conn.Kind == ConnHierOut {
								dir = netlist.Output
							} else if conn.Kind == ConnHierBidir {
								dir = netlist.Inout
							}
							if err := nc.AddPort(conn.Name, dir); err != nil {
								return nil, err
							}
						}
					}
				}
				all = append(all, namedGroup{page: pi, name: name, g: g, off: hasOff})
			}
		}

		// Merge decision per name. Globals always merge; otherwise the
		// dialect rules apply.
		merged := make(map[string][]namedGroup)
		for _, ng := range all {
			merged[ng.name] = append(merged[ng.name], ng)
		}
		names := make([]string, 0, len(merged))
		for n := range merged {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			grps := merged[name]
			mergeAll := d.IsGlobal(name)
			if !mergeAll {
				pages := map[int]bool{}
				for _, ng := range grps {
					pages[ng.page] = true
				}
				if len(pages) <= 1 {
					mergeAll = true // same-page same-name groups always join
				} else if opts.ImplicitCrossPage {
					mergeAll = true
				} else if opts.RequireOffPage {
					// merge only the subset that carries off-page connectors
					mergeAll = false
				}
			}
			if mergeAll {
				nt := nc.EnsureNet(name)
				nt.Global = d.IsGlobal(name)
				for _, ng := range grps {
					for _, pr := range ng.g.pins {
						if err := connectPin(d, c, nc, nl, ensureMaster, pr, name); err != nil {
							return nil, err
						}
					}
				}
				continue
			}
			// Explicit mode: groups with off-page connectors merge under the
			// shared name; others get page-qualified distinct nets — this is
			// precisely the data loss the paper warns about when implicit
			// connections are not made explicit before migration.
			offNet := ""
			for _, ng := range grps {
				var netName string
				if ng.off {
					if offNet == "" {
						offNet = name
						nt := nc.EnsureNet(name)
						nt.Global = d.IsGlobal(name)
					}
					netName = offNet
				} else {
					netName = fmt.Sprintf("%s@p%d", name, ng.page+1)
					nc.EnsureNet(netName)
				}
				for _, pr := range ng.g.pins {
					if err := connectPin(d, c, nc, nl, ensureMaster, pr, netName); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return nl, nil
}

// connectPin records one instance-pin connection, creating the netlist
// instance and its primitive master on first touch.
func connectPin(d *Design, c *Cell, nc *netlist.Cell, nl *netlist.Netlist,
	ensureMaster func(*Symbol) (string, error), pr pinRef, net string) error {
	inst := findInstance(c, pr.inst)
	if inst == nil {
		return fmt.Errorf("%w: instance %q", ErrNotFound, pr.inst)
	}
	sym, ok := d.Symbol(inst.Sym)
	if !ok {
		return fmt.Errorf("%w: symbol %s", ErrNotFound, inst.Sym)
	}
	master, err := ensureMaster(sym)
	if err != nil {
		return err
	}
	ni, ok := nc.Instances[pr.inst]
	if !ok {
		ni, err = nc.AddInstance(pr.inst, master)
		if err != nil {
			return err
		}
		for _, p := range inst.Props {
			ni.Attrs[p.Name] = p.Value
		}
	}
	return nc.Connect(pr.inst, pr.pin, net)
}

func findInstance(c *Cell, name string) *Instance {
	for _, pg := range c.Pages {
		if inst, ok := pg.Instances[name]; ok {
			return inst
		}
	}
	return nil
}

// FloatingEnd is a wire endpoint that touches nothing else — the condition
// under which the paper's migration "added off-page connectors to the end
// of wires if a floating wire was determined".
type FloatingEnd struct {
	Page  int
	Wire  int
	Point geom.Point
	// Name of the net the wire belongs to, when labelled.
	Net string
}

// FloatingEnds finds all floating wire endpoints in a cell.
func FloatingEnds(d *Design, c *Cell) ([]FloatingEnd, error) {
	var out []FloatingEnd
	var on []int
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
		ix := newSegIndex(pg.Wires)
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
				on = ix.wiresAt(end, on[:0])
				for _, wj := range on {
					if wj != wi {
						touches = true
						break
					}
				}
				if touches {
					continue
				}
				name := wireNetName(pg, w)
				out = append(out, FloatingEnd{Page: pi, Wire: wi, Point: end, Net: name})
			}
		}
	}
	return out, nil
}

// wireNetName finds a label attached to the wire, if any.
func wireNetName(pg *Page, w *Wire) string {
	for _, l := range pg.Labels {
		for i := 0; i+1 < len(w.Points); i++ {
			if onSegment(l.At, w.Points[i], w.Points[i+1]) {
				return l.Text
			}
		}
	}
	return ""
}

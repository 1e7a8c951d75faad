// Package route is a two-layer grid maze router that honours per-net
// topology rules — width in tracks, spacing to foreign nets, and grounded
// shields — exactly the constraint classes Section 4 says the designer must
// push into P&R tools: "routers should be able to accept width
// specifications for selected nets. Some tools can not support these
// requirements..." The Audit function measures what happens when they
// don't: a design routed with dropped rules is checked against the full
// rules and the damage is counted.
package route

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/obs"
	"cadinterop/internal/phys"
)

// ErrRoute reports routing failures.
var ErrRoute = errors.New("route: error")

// Rule is a per-net routing rule, all distances in tracks.
type Rule struct {
	WidthTracks   int
	SpacingTracks int
	Shield        bool
	// MaxCoupledLen bounds the parallel run with any single foreign net,
	// in grid units; 0 = unconstrained.
	MaxCoupledLen int
}

// Options configures routing.
type Options struct {
	// Pitch is the routing grid pitch in DBU; default 10.
	Pitch int
	// Rules are the per-net rules the router enforces.
	Rules map[string]Rule
	// Keepouts block routing.
	Keepouts []geom.Rect
	// SkipNets are excluded (power/ground distributed by the floorplan).
	SkipNets map[string]bool
	// PlainBFS disables the congestion-aware cost function (vias and
	// pin-adjacent cells cost the same as open fabric) — the ablation knob
	// for the router's key design choice.
	PlainBFS bool
	// Workers is ignored: Route always routes serially, and callers that
	// want parallelism fan out over independent designs instead.
	//
	// Deprecated: the next benchmark change removes it.
	Workers int
	// Metrics, when non-nil, receives router counters: nets routed/failed,
	// rip-up passes and bfs searches. Every count is a function of the
	// design and options alone. Nil costs one nil check per increment
	// (DESIGN.md §5f).
	Metrics *obs.Registry
}

// Result is the routing outcome plus the occupancy grid for auditing. The
// grid is the one record of the routed wires.
type Result struct {
	Wirelength  int
	Vias        int
	Failed      []string
	FailReasons []string
	ShieldLen   int
	grid        *Grid
}

// Grid is the routing fabric occupancy: per layer, per cell, an interned
// owner ID (see intern.go for the encoding; Owner decodes back to the
// string vocabulary "" = free, "#" = blocked, "!"+net = shield, "~"+net =
// clearance halo, "?"+net = pending pin reservation).
//
// Both layers live in one slab, own. Each layer is (W+2)×(H+2) cells: the
// die plus a frame of cellEdge one cell wide, which nothing ever writes. A
// step from a die cell therefore always lands inside the slab. The search
// reads the frame as blocked, and every scan across a wire stops there, so
// both move by flat offsets with no bounds check (DESIGN.md §5c). index
// maps a die cell to its slab index, and only pins, keepouts and Owner,
// where die coordinates cross the grid's boundary, call it. W, H and every
// exported signature stay in die coordinates.
type Grid struct {
	W, H  int
	Pitch int
	// tab numbers the Route's nets. Only reservePins writes it, and every
	// attempt's grid shares it.
	tab internTable
	own []int32
	// stride is the padded row length (W+2) and layer the padded layer
	// size ((W+2)×(H+2)); layer 1 starts at own[layer].
	stride, layer int
	// pin holds per-cell pin flags (pinNear, pinPad) for both layers,
	// indexed like own: a pin's flags lie on layer 1 as on layer 0, so no
	// reader folds one layer onto the other. Only reservePins writes it, so
	// it is fixed for the whole of a Route and every attempt's grid shares
	// it.
	pin []uint8
	// plainBFS disables congestion-aware costs (ablation).
	plainBFS bool
}

// Pin flags, one byte per cell of Grid.pin.
const (
	// pinNear marks a pad or a cell directly beside one: the cells the
	// search charges the pin-adjacency cost. It is bit 0, so a cell's flags
	// masked with it index the search's step-cost table.
	pinNear uint8 = 1 << iota
	// pinPad marks a pin landing pad, exempt from spacing windows.
	pinPad
)

// NewGrid allocates a fabric covering the die.
func NewGrid(die geom.Rect, pitch int) *Grid {
	w := die.Dx()/pitch + 1
	h := die.Dy()/pitch + 1
	stride := w + 2
	layer := stride * (h + 2)
	g := &Grid{W: w, H: h, Pitch: pitch,
		own: make([]int32, 2*layer), stride: stride, layer: layer, pin: make([]uint8, 2*layer)}
	for base := 0; base < len(g.own); base += layer {
		for x := 0; x < stride; x++ {
			g.own[base+x] = cellEdge
			g.own[base+layer-stride+x] = cellEdge
		}
		for row := base + stride; row < base+layer-stride; row += stride {
			g.own[row] = cellEdge
			g.own[row+stride-1] = cellEdge
		}
	}
	return g
}

// clone returns a grid over a copy of g's cells, copied into spare's slab
// when spare is a grid cloned from g before. It shares g's intern table and
// pin flags, which no routing pass writes.
func (g *Grid) clone(spare *Grid) *Grid {
	if spare != nil {
		copy(spare.own, g.own)
		return spare
	}
	c := *g
	c.own = slices.Clone(g.own)
	return &c
}

// index returns the slab index of die cell (x, y) on layer l.
func (g *Grid) index(l, x, y int) int {
	return l*g.layer + (y+1)*g.stride + x + 1
}

// inDie reports whether (x, y) is a die cell.
func (g *Grid) inDie(x, y int) bool {
	return x >= 0 && y >= 0 && x < g.W && y < g.H
}

// pinCell returns the slab index of a pin's landing cell on layer 0, and
// false for a pin off the die.
func (g *Grid) pinCell(p geom.Point) (int, bool) {
	if !g.inDie(p.X, p.Y) {
		return 0, false
	}
	return g.index(0, p.X, p.Y), true
}

// across returns the slab offset of one track across the wires of slab
// index i's layer: along y (stride) on the horizontal layer 0, along x (1)
// on layer 1. Width, spacing, shield and halo windows all lie across a
// wire.
func (g *Grid) across(i int) int {
	if i < g.layer {
		return g.stride
	}
	return 1
}

// isPad reports whether slab index i, on either layer, lies over a pin
// landing pad. No frame cell is a pad.
func (g *Grid) isPad(i int) bool {
	return g.pin[i]&pinPad != 0
}

// markPin flags die cell i of layer 0, and the cell above it on layer 1,
// as a pin pad, and each of them and its four neighbours in its layer as
// near a pin. A neighbour outside the die is a frame cell, whose flags
// nothing reads.
func (g *Grid) markPin(i int) {
	for _, c := range [2]int{i, i + g.layer} {
		g.pin[c] |= pinPad | pinNear
		g.pin[c-1] |= pinNear
		g.pin[c+1] |= pinNear
		g.pin[c-g.stride] |= pinNear
		g.pin[c+g.stride] |= pinNear
	}
}

// Owner returns the occupant of a cell as a string; out-of-bounds and
// keepout cells both decode to the blockage sentinel "#". Net names that
// would collide with the sentinel vocabulary are rejected by Route, so the
// decoding is unambiguous.
func (g *Grid) Owner(layer, x, y int) string {
	if !g.inDie(x, y) {
		return g.tab.decode(cellBlocked)
	}
	return g.tab.decode(g.own[g.index(layer, x, y)])
}

// Route connects every multi-pin net of the design's top cell.
func Route(d *phys.Design, opts Options) (*Result, error) {
	if opts.Pitch <= 0 {
		opts.Pitch = 10
	}
	// Resolved before anything can fail, so a registry sees the counter
	// even for a design Route rejects.
	searches := opts.Metrics.Counter("route.bfs.searches")
	netPins, err := gatherNetPins(d, opts)
	if err != nil {
		return nil, err
	}
	nets := orderNets(netPins, opts)

	// Keepouts, pin reservations, pin flags and the nets' numbering are
	// the same for every pass, so the fabric is built once and each pass
	// routes on a copy of its cells. One scratch serves every search of
	// every pass: searches run one at a time.
	fab := freshGrid(d, opts, netPins)
	sc := newSearchScratch(len(fab.own), searches)
	// The first pass has no attempt to beat, so it routes every net.
	best := routeAll(fab, nil, sc, nets, netPins, opts, len(nets))
	// spare is the grid of the attempt that lost last. Nothing reads a
	// losing attempt, so the next pass copies the fabric into its slab, and
	// a Route holds at most two slabs besides the fabric's.
	var spare *Grid

	// Rip-up and retry: route a fresh copy of the fabric with the failed
	// nets promoted to the front of the order (they get virgin fabric), up
	// to a few passes; keep the best attempt. An attempt is kept only with
	// fewer failed nets than best, and the next order depends only on the
	// last order and best.Failed, so an attempt ends at its
	// len(best.Failed)-th failed net: nothing after it can change the
	// result (DESIGN.md §5c).
	order := nets
	pass := 0
	for ; pass < 6 && len(best.Failed) > 0; pass++ {
		order = promoteFailed(order, best.Failed)
		if pass > 0 {
			// Perturb the tail so successive passes explore different
			// packings once the failed set stabilizes.
			order = rotateTail(order, len(best.Failed), pass)
		}
		attempt := routeAll(fab, spare, sc, order, netPins, opts, len(best.Failed))
		if len(attempt.Failed) < len(best.Failed) {
			best, attempt = attempt, best
		}
		spare = attempt.grid
	}
	recordRouteMetrics(opts.Metrics, best, len(nets), pass)
	return best, nil
}

// gatherNetPins collects pins per net in grid coordinates. Net names are
// validated against the reserved marker vocabulary here, before any of
// them is interned. The map is pre-sized from the instance count — a
// chain design has about one net per instance (DESIGN.md §5c).
// opts.Pitch must already be normalized.
func gatherNetPins(d *phys.Design, opts Options) (map[string][]geom.Point, error) {
	top := d.TopCell()
	instNames := top.InstanceNames()
	netPins := make(map[string][]geom.Point, len(instNames)+1)
	for _, in := range instNames {
		inst := top.Instances[in]
		pins := make([]string, 0, len(inst.Conns))
		for p := range inst.Conns {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		for _, pin := range pins {
			net := inst.Conns[pin]
			if opts.SkipNets[net] {
				continue
			}
			if err := checkNetName(net); err != nil {
				return nil, err
			}
			pos, err := d.PinPos(in, pin)
			if err != nil {
				return nil, err
			}
			gp := geom.Pt((pos.X-d.Die.Min.X)/opts.Pitch, (pos.Y-d.Die.Min.Y)/opts.Pitch)
			netPins[net] = append(netPins[net], gp)
		}
	}
	return netPins, nil
}

// orderNets returns the multi-pin nets in canonical routing order:
// constrained nets first (they need clean fabric), then by pin count
// descending, then name.
func orderNets(netPins map[string][]geom.Point, opts Options) []string {
	nets := make([]string, 0, len(netPins))
	for n, ps := range netPins {
		if len(ps) >= 2 {
			nets = append(nets, n)
		}
	}
	sort.Slice(nets, func(i, j int) bool {
		_, ci := opts.Rules[nets[i]]
		_, cj := opts.Rules[nets[j]]
		if ci != cj {
			return ci
		}
		if len(netPins[nets[i]]) != len(netPins[nets[j]]) {
			return len(netPins[nets[i]]) > len(netPins[nets[j]])
		}
		return nets[i] < nets[j]
	})
	return nets
}

// recordRouteMetrics lands the routing outcome in the registry (no-op on
// nil): totals are per-Route sums, so repeated calls accumulate across a
// whole flow or experiment.
func recordRouteMetrics(reg *obs.Registry, res *Result, nets, passes int) {
	if reg == nil {
		return
	}
	reg.Counter("route.nets.routed").Add(int64(nets - len(res.Failed)))
	reg.Counter("route.nets.failed").Add(int64(len(res.Failed)))
	reg.Counter("route.ripup.passes").Add(int64(passes))
}

// reservePins numbers the nets by sorted name, marks pin landing cells,
// with their pin adjacency, and reserves them with the pending marker in
// that order. It is the only writer of Grid.tab and Grid.pin.
func reservePins(g *Grid, netPins map[string][]geom.Point) {
	names := make([]string, 0, len(netPins))
	for n := range netPins {
		names = append(names, n)
	}
	sort.Strings(names)
	g.tab = newInternTable(names)
	for _, n := range names {
		sig, _ := g.tab.lookup(n)
		for _, p := range netPins[n] {
			// Pins live on the horizontal layer only; the layer above
			// stays routable for through-traffic. A pin off the die marks
			// and reserves nothing.
			i, ok := g.pinCell(p)
			if !ok {
				continue
			}
			g.markPin(i)
			if g.own[i] == cellEmpty {
				g.own[i] = sig | kindPending
			}
		}
	}
}

// rotateTail rotates the portion of order after the first keep entries by
// k positions.
func rotateTail(order []string, keep, k int) []string {
	if keep >= len(order) {
		return order
	}
	tail := append([]string(nil), order[keep:]...)
	n := len(tail)
	k = k % n
	out := append([]string(nil), order[:keep]...)
	out = append(out, tail[k:]...)
	out = append(out, tail[:k]...)
	return out
}

// normRule clamps a net rule to a routable minimum width.
func normRule(r Rule) Rule {
	if r.WidthTracks < 1 {
		r.WidthTracks = 1
	}
	return r
}

// routeAll routes the nets in order on a copy of the fabric, made in
// spare's slab when spare is non-nil, booking failures, and stops at the
// maxFailed-th failed net.
func routeAll(fab, spare *Grid, sc *searchScratch, order []string, netPins map[string][]geom.Point, opts Options, maxFailed int) *Result {
	g := fab.clone(spare)
	res := &Result{grid: g}
	for _, net := range order {
		sig, _ := g.tab.lookup(net)
		if err := routeNet(g, sc, res, sig, netPins[net], normRule(opts.Rules[net])); err != nil {
			res.Failed = append(res.Failed, net)
			res.FailReasons = append(res.FailReasons, err.Error())
			if len(res.Failed) == maxFailed {
				break
			}
		}
	}
	return res
}

// promoteFailed moves failed nets to the front, preserving relative order
// elsewhere.
func promoteFailed(order, failed []string) []string {
	bad := make(map[string]bool, len(failed))
	for _, f := range failed {
		bad[f] = true
	}
	out := make([]string, 0, len(order))
	for _, n := range order {
		if bad[n] {
			out = append(out, n)
		}
	}
	for _, n := range order {
		if !bad[n] {
			out = append(out, n)
		}
	}
	return out
}

// freshGrid builds a Route's fabric: keepouts blocked on both layers, the
// nets numbered by sorted name and every pin reserved. opts.Pitch must
// already be normalized.
func freshGrid(d *phys.Design, opts Options, netPins map[string][]geom.Point) *Grid {
	g := NewGrid(d.Die, opts.Pitch)
	g.plainBFS = opts.PlainBFS
	for _, ko := range opts.Keepouts {
		// A keepout blocks its cells on the die. The max edge is
		// exclusive: a cell starting exactly at Max lies outside it.
		x0 := max((ko.Min.X-d.Die.Min.X)/opts.Pitch, 0)
		y0 := max((ko.Min.Y-d.Die.Min.Y)/opts.Pitch, 0)
		x1 := min(gridMax(ko.Max.X-d.Die.Min.X, opts.Pitch), g.W-1)
		y1 := min(gridMax(ko.Max.Y-d.Die.Min.Y, opts.Pitch), g.H-1)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				g.own[g.index(0, x, y)] = cellBlocked
				g.own[g.index(1, x, y)] = cellBlocked
			}
		}
	}
	// Pre-reserve every pin cell so no net can route through another
	// net's landing pad. Reserved cells carry a pending marker ("?net"):
	// foreign nets treat them as obstacles, the owning net may claim them,
	// and they do not count as connected yet.
	reservePins(g, netPins)
	return g
}

// gridMax converts an exclusive DBU bound to an inclusive grid index.
func gridMax(v, pitch int) int {
	if v%pitch == 0 {
		return v/pitch - 1
	}
	return v / pitch
}

// eachCell calls f on the slab index of every cell of the net's signal
// wire, layer by layer and row by row. The frame is never the net's, so
// every cell is a die cell.
func (g *Grid) eachCell(sig int32, f func(int)) {
	for i, o := range g.own {
		if o == sig {
			f(i)
		}
	}
}

// routeNet maze-routes one net on the grid, connecting pins one at a time
// to the grown net region. Wire found before an error stays claimed and
// booked, like a success: the rip-up pass routes a fresh copy of the
// fabric anyway.
func routeNet(g *Grid, sc *searchScratch, res *Result, sig int32, pins []geom.Point, rule Rule) error {
	// Seed: the first pin. Pins claim at width 1 — the width rule governs
	// wires; pad cells must not stomp on neighbors' halos.
	if seed, ok := g.pinCell(pins[0]); ok {
		claim(g, sig, seed, 1)
	}
	layer := int32(g.layer)
	for _, p := range pins[1:] {
		pin, ok := g.pinCell(p)
		if ok && g.own[pin] == sig {
			continue // already on the net (shared pin cell)
		}
		// The pin landing needs only its own cell (width rules govern
		// wires).
		if !ok || !usable(g, sig, pin, Rule{WidthTracks: 1}) {
			return fmt.Errorf("%w: net %s pin cell blocked", ErrRoute, g.tab.name(sig))
		}
		met, err := bfs(g, sc, sig, int32(pin), rule)
		if err != nil {
			return err
		}
		// Walk the search back from the cell where it met the net to the
		// pin, booking each step as a via or a track of wire. The met cell
		// is the net's already: re-claiming it at full width would stomp
		// neighbors the search never verified. The pin claims at width 1
		// like the seed, every cell between at the rule's width.
		for at, i := met, sc.prev[met]; i >= 0; at, i = i, sc.prev[i] {
			if (at >= layer) != (i >= layer) {
				res.Vias++
			} else {
				res.Wirelength++
			}
			width := rule.WidthTracks
			if sc.prev[i] < 0 {
				width = 1
			}
			claim(g, sig, int(i), width)
		}
	}
	if rule.Shield {
		res.ShieldLen += addMarkers(g, sig, sig|kindShield, 1)
	}
	if rule.SpacingTracks > 0 {
		// Spacing is symmetric: reserve a clearance halo so nets routed
		// later cannot violate this net's rule either.
		addMarkers(g, sig, sig|kindHalo, rule.SpacingTracks)
	}
	return nil
}

// addMarkers occupies the free cells within dist tracks across the net's
// wires with marker and returns how many it took. Both markers are
// obstacles to foreign nets: a shield ("!net", dist 1) is a grounded wire,
// and a clearance halo ("~net") is empty space that audits ignore.
func addMarkers(g *Grid, sig, marker int32, dist int) int {
	added := 0
	g.eachCell(sig, func(i int) {
		step := g.across(i)
		for _, d := range [2]int{-step, step} {
			for s, c := 1, i+d; s <= dist && g.own[c] != cellEdge; s, c = s+1, c+d {
				if g.own[c] == cellEmpty {
					g.own[c] = marker
					added++
				}
			}
		}
	})
	return added
}

// claim marks slab index i and the width-1 cells beyond it across its
// layer as owned by the net. A pin claims at width 1, and every wider
// claim covers cells usable has accepted at that width, so no claim
// reaches the frame.
func claim(g *Grid, sig int32, i, width int) {
	step := g.across(i)
	for w := 0; w < width; w, i = w+1, i+step {
		g.own[i] = sig
	}
}

// usable reports whether the net may occupy slab index i under its rule:
// the cell (and width expansion) must be free or already the net's own,
// and the spacing clearance must hold against foreign nets. Neither window
// reads past the die's edge: the frame fails the width window and ends a
// spacing window.
func usable(g *Grid, sig int32, i int, rule Rule) bool {
	step := g.across(i)
	for w := 0; w < rule.WidthTracks; w, i = w+1, i+step {
		if o := g.own[i]; o != cellEmpty && !ownCell(o, sig) {
			return false
		}
		// Spacing: foreign occupants within the clearance window fail.
		// Pin landing pads are exempt — spacing rules govern parallel
		// wires, not fixed pin geometry.
		if g.isPad(i) {
			continue
		}
		for _, d := range [2]int{-step, step} {
			for s, a := 1, i+d; s <= rule.SpacingTracks && g.own[a] != cellEdge; s, a = s+1, a+d {
				// Spacing measures to real foreign wires; shields, halos
				// and keepouts are not aggressors.
				if !g.isPad(a) && spacingAggressor(g.own[a], sig) {
					return false
				}
			}
		}
	}
	return true
}

// bfs is a uniform-cost search from the pin at slab index from back to any
// cell already owned by net. It returns the cell where it met the net, and
// sc.prev leads from there back to the pin. The cost function is
// congestion-aware: vias cost extra and cells adjacent to pin landing pads
// are discouraged, so wires prefer open fabric and leave pin escapes for
// the nets that need them. It walks slab indices: a step along layer 0 is
// ±1, along layer 1 ±stride, and a via ±layer, and the frame stops it at
// the die's edge. All visited/cost/frontier state lives in sc, the route's
// one search scratch (scratch.go), so a search allocates nothing.
func bfs(g *Grid, sc *searchScratch, sig int32, from int32, rule Rule) (int32, error) {
	sc.searches.Inc()
	viaCost, pinAdjCost := 3, 4
	if g.plainBFS {
		viaCost, pinAdjCost = 1, 0
	}
	// cost[move][near] is the price of one step: move 2 is the via, and
	// near is 1 when the step enters a cell beside a pin that is not
	// already the net's.
	cost := [3][2]int{{1, 1 + pinAdjCost}, {1, 1 + pinAdjCost}, {viaCost, viaCost + pinAdjCost}}
	// Without a width or spacing window, usable only re-reads the cell the
	// owner test below has just accepted, so it is called only when the
	// rule needs one.
	window := rule.WidthTracks > 1 || rule.SpacingTracks > 0
	own, pins := g.own, g.pin
	pending := sig | kindPending
	layer, stride := int32(g.layer), int32(g.stride)
	sc.reset()
	sc.setDist(from, 0, -1)
	sc.push(0, from)
	maxCost := 0
	for d := 0; d <= maxCost; d++ {
		bkt := &sc.buckets[d%len(sc.buckets)]
		for len(*bkt) > 0 {
			ci := (*bkt)[len(*bkt)-1]
			*bkt = (*bkt)[:len(*bkt)-1]
			if !sc.settled(ci, d) {
				continue // stale entry
			}
			if own[ci] == sig {
				return ci, nil
			}
			// Moves in a fixed order: back along the layer's direction,
			// forward along it, then the via.
			along, via := int32(1), layer
			if ci >= layer {
				along, via = stride, -layer
			}
			// Each neighbour's tests run cheapest first: the owner, the
			// step's cost, whether a step as cheap has reached it, and only
			// then usable's windows. Every test only reads, so the order
			// decides no neighbour differently (DESIGN.md §5c).
			for t, ni := range [3]int32{ci - along, ci + along, ci + via} {
				owner := own[ni]
				// Free, the net's own wire, or its own pending pin; the
				// frame reads as blocked, so ni is a die cell.
				if owner != sig && owner != cellEmpty && owner != pending {
					continue
				}
				near := pins[ni] & pinNear
				if owner == sig {
					near = 0
				}
				nd := d + cost[t][near]
				if sc.reached(ni, nd) {
					continue
				}
				if window && owner != sig && !usable(g, sig, int(ni), rule) {
					continue
				}
				sc.setDist(ni, nd, ci)
				sc.push(nd, ni)
				if nd > maxCost {
					maxCost = nd
				}
			}
		}
	}
	return -1, fmt.Errorf("%w: net %s unroutable", ErrRoute, g.tab.name(sig))
}

// --- audit -------------------------------------------------------------

// Violation is one audit finding.
type Violation struct {
	Net    string
	Kind   string // "width", "spacing", "shield", "coupling", "unrouted"
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("net %s: %s violation: %s", v.Net, v.Kind, v.Detail)
}

// CouplingRun measures the longest parallel adjacency between a net and
// any single foreign net, in grid units.
func (r *Result) CouplingRun(net string) (worstNet string, run int) {
	g := r.grid
	sig, ok := g.tab.lookup(net)
	if !ok {
		return "", 0
	}
	runs := make(map[int32]int)
	g.eachCell(sig, func(i int) {
		step := g.across(i)
		for _, a := range [2]int{i - step, i + step} {
			if o := g.own[a]; foreignSignal(o, sig) {
				runs[o]++
			}
		}
	})
	for o, c := range runs {
		n := g.tab.name(o)
		if c > run || (c == run && n < worstNet) {
			worstNet, run = n, c
		}
	}
	return worstNet, run
}

// actualMinWidth computes the narrowest point of a routed net in tracks,
// 0 when the net has no wire off its pins.
func (r *Result) actualMinWidth(net string) int {
	g := r.grid
	sig, ok := g.tab.lookup(net)
	if !ok {
		return 0
	}
	min := 0
	g.eachCell(sig, func(i int) {
		if g.isPad(i) {
			return
		}
		// Count contiguous own cells across the wire; the frame is no
		// net's.
		step := g.across(i)
		w := 1
		for _, d := range [2]int{step, -step} {
			for a := i + d; g.own[a] == sig; a += d {
				w++
			}
		}
		if min == 0 || w < min {
			min = w
		}
	})
	return min
}

// minClearance finds the smallest distance (tracks) from the net's wires to
// any foreign signal wire.
func (r *Result) minClearance(net string, window int) int {
	g := r.grid
	min := window + 1
	sig, ok := g.tab.lookup(net)
	if !ok {
		return min
	}
	g.eachCell(sig, func(i int) {
		if g.isPad(i) {
			return
		}
		step := g.across(i)
		for _, d := range [2]int{-step, step} {
			// Only a wire nearer than min can lower it.
			for s, c := 1, i+d; s < min && g.own[c] != cellEdge; s, c = s+1, c+d {
				if !g.isPad(c) && foreignSignal(g.own[c], sig) {
					min = s
				}
			}
		}
	})
	return min
}

// shieldCoverage reports the fraction of the net's adjacent tracks that are
// shield- or self-occupied.
func (r *Result) shieldCoverage(net string) float64 {
	g := r.grid
	sig, ok := g.tab.lookup(net)
	if !ok {
		return 1
	}
	var total, covered int
	g.eachCell(sig, func(i int) {
		if g.isPad(i) {
			return
		}
		step := g.across(i)
		for _, a := range [2]int{i - step, i + step} {
			o := g.own[a]
			if o == cellEdge {
				continue // off the die: no track to shield
			}
			total++
			if ownCell(o, sig) || isShieldOf(o, sig) || g.isPad(a) {
				covered++
			}
		}
	})
	if total == 0 {
		return 1 // no wire cells outside pins: nothing needs shielding
	}
	return float64(covered) / float64(total)
}

// Audit checks the routed result against a full rule set — typically the
// floorplan's original intent, not the possibly-degraded rules the router
// was given — and reports every breach.
func Audit(res *Result, fullRules map[string]Rule) []Violation {
	var out []Violation
	nets := make([]string, 0, len(fullRules))
	for n := range fullRules {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	failed := make(map[string]bool, len(res.Failed))
	for _, f := range res.Failed {
		failed[f] = true
	}
	for _, net := range nets {
		rule := fullRules[net]
		if failed[net] {
			out = append(out, Violation{Net: net, Kind: "unrouted", Detail: "router gave up"})
			continue
		}
		if w := res.actualMinWidth(net); rule.WidthTracks > 1 && w > 0 && w < rule.WidthTracks {
			out = append(out, Violation{Net: net, Kind: "width",
				Detail: fmt.Sprintf("routed %d tracks, need %d", w, rule.WidthTracks)})
		}
		if rule.SpacingTracks > 0 {
			if c := res.minClearance(net, rule.SpacingTracks); c <= rule.SpacingTracks {
				out = append(out, Violation{Net: net, Kind: "spacing",
					Detail: fmt.Sprintf("clearance %d tracks, need > %d", c, rule.SpacingTracks)})
			}
		}
		if rule.Shield {
			if cov := res.shieldCoverage(net); cov < 0.9 {
				out = append(out, Violation{Net: net, Kind: "shield",
					Detail: fmt.Sprintf("coverage %.0f%%, need 90%%", cov*100)})
			}
		}
		if rule.MaxCoupledLen > 0 {
			if agg, run := res.CouplingRun(net); run > rule.MaxCoupledLen {
				out = append(out, Violation{Net: net, Kind: "coupling",
					Detail: fmt.Sprintf("parallel run %d with %s exceeds %d", run, agg, rule.MaxCoupledLen)})
			}
		}
	}
	return out
}

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

// Segment is one routed wire piece in grid coordinates.
type Segment struct {
	Layer int // 0 = horizontal layer, 1 = vertical layer
	A, B  geom.Point
}

// Result is the routing outcome plus the occupancy grid for auditing.
type Result struct {
	Segments    map[string][]Segment
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
type Grid struct {
	W, H  int
	Pitch int
	tab   *internTable
	own   [2][]int32
	// pin holds per-cell pin flags (pinPad, pinNear) for both layers. Only
	// reservePins writes it, so it is fixed for the whole of a Route.
	pin []uint8
	// plainBFS disables congestion-aware costs (ablation).
	plainBFS bool
}

// Pin flags, one byte per cell of Grid.pin.
const (
	// pinPad marks a pin landing pad, exempt from spacing windows.
	pinPad uint8 = 1 << iota
	// pinNear marks a pad or a cell directly beside one: the cells the
	// search charges the pin-adjacency cost.
	pinNear
)

// NewGrid allocates a fabric covering the die.
func NewGrid(die geom.Rect, pitch int) *Grid {
	w := die.Dx()/pitch + 1
	h := die.Dy()/pitch + 1
	g := &Grid{W: w, H: h, Pitch: pitch, tab: newInternTable(), pin: make([]uint8, w*h)}
	for l := 0; l < 2; l++ {
		g.own[l] = make([]int32, w*h)
	}
	return g
}

// isPin reports whether a cell is a pin landing pad.
func (g *Grid) isPin(x, y int) bool {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return false
	}
	return g.pin[y*g.W+x]&pinPad != 0
}

// markPin flags an in-die cell as a pin pad and it and its four
// neighbours as near a pin; pins outside the die mark nothing.
func (g *Grid) markPin(x, y int) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	i := y*g.W + x
	g.pin[i] |= pinPad | pinNear
	if x > 0 {
		g.pin[i-1] |= pinNear
	}
	if x+1 < g.W {
		g.pin[i+1] |= pinNear
	}
	if y > 0 {
		g.pin[i-g.W] |= pinNear
	}
	if y+1 < g.H {
		g.pin[i+g.W] |= pinNear
	}
}

// Owner returns the occupant of a cell as a string; out-of-bounds and
// keepout cells both decode to the blockage sentinel "#". Net names that
// would collide with the sentinel vocabulary are rejected by Route, so the
// decoding is unambiguous.
func (g *Grid) Owner(layer, x, y int) string {
	return g.tab.decode(g.owner(layer, x, y))
}

// owner returns the interned occupant of a cell.
func (g *Grid) owner(layer, x, y int) int32 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return cellBlocked
	}
	return g.own[layer][y*g.W+x]
}

func (g *Grid) set(layer, x, y int, id int32) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.own[layer][y*g.W+x] = id
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

	g := freshGrid(d, opts, netPins)
	// One scratch serves every search of every pass: rip-up grids have the
	// same size, and searches run one at a time.
	sc := newSearchScratch(2*g.W*g.H, searches)
	res := &Result{Segments: make(map[string][]Segment), grid: g}
	routeAll(g, sc, res, nets, netPins, opts)
	if len(res.Failed) == 0 {
		recordRouteMetrics(opts.Metrics, res, len(nets), 0)
		return res, nil
	}

	// Rip-up and retry: rebuild the fabric from scratch with the failed
	// nets promoted to the front of the order (they get virgin fabric), up
	// to a few passes; keep the best attempt.
	best := res
	order := nets
	passes := 0
	for pass := 0; pass < 6 && len(best.Failed) > 0; pass++ {
		passes++
		order = promoteFailed(order, best.Failed)
		if pass > 0 {
			// Perturb the tail so successive passes explore different
			// packings once the failed set stabilizes.
			order = rotateTail(order, len(best.Failed), pass)
		}
		g2 := freshGrid(d, opts, netPins)
		attempt := &Result{Segments: make(map[string][]Segment), grid: g2}
		routeAll(g2, sc, attempt, order, netPins, opts)
		if len(attempt.Failed) < len(best.Failed) {
			best = attempt
		}
	}
	recordRouteMetrics(opts.Metrics, best, len(nets), passes)
	return best, nil
}

// gatherNetPins collects pins per net in grid coordinates. Net names are
// validated against the reserved marker vocabulary here, before any of
// them is interned into a grid. The map is pre-sized from the instance
// count — a chain design has about one net per instance (DESIGN.md §5c).
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

// reservePins marks pin landing cells, with their pin adjacency, and
// reserves them with the pending marker in canonical net order. It is the
// only writer of Grid.pin.
func reservePins(g *Grid, netPins map[string][]geom.Point) {
	names := make([]string, 0, len(netPins))
	for n := range netPins {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range netPins[n] {
			g.markPin(p.X, p.Y)
			// Pins live on the horizontal layer only; the layer above
			// stays routable for through-traffic.
			if g.owner(0, p.X, p.Y) == cellEmpty {
				g.set(0, p.X, p.Y, g.tab.intern(n)|kindPending)
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

// routeAll routes every net in order on the grid, booking failures.
func routeAll(g *Grid, sc *searchScratch, res *Result, order []string, netPins map[string][]geom.Point, opts Options) {
	for _, net := range order {
		if err := routeNet(g, sc, res, net, g.tab.intern(net), netPins[net], normRule(opts.Rules[net])); err != nil {
			res.Failed = append(res.Failed, net)
			res.FailReasons = append(res.FailReasons, err.Error())
		}
	}
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

// freshGrid builds the fabric with keepouts blocked on both layers and
// every pin reserved. opts.Pitch must already be normalized.
func freshGrid(d *phys.Design, opts Options, netPins map[string][]geom.Point) *Grid {
	g := NewGrid(d.Die, opts.Pitch)
	g.plainBFS = opts.PlainBFS
	for _, ko := range opts.Keepouts {
		x0 := (ko.Min.X - d.Die.Min.X) / opts.Pitch
		y0 := (ko.Min.Y - d.Die.Min.Y) / opts.Pitch
		// The max edge is exclusive: a cell starting exactly at Max lies
		// outside the keepout.
		x1 := gridMax(ko.Max.X-d.Die.Min.X, opts.Pitch)
		y1 := gridMax(ko.Max.Y-d.Die.Min.Y, opts.Pitch)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				g.set(0, x, y, cellBlocked)
				g.set(1, x, y, cellBlocked)
			}
		}
	}
	// Pre-reserve every pin cell so no net can route through another
	// net's landing pad. Reserved cells carry a pending marker ("?net"):
	// foreign nets treat them as obstacles, the owning net may claim them,
	// and they do not count as connected yet. The intern table is grown to
	// final size first so the hot path never rehashes or reallocates it
	// (allocs_test.go locks this in).
	g.tab.grow(len(netPins))
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

type node struct {
	l, x, y int
}

// routeNet maze-routes one net on the grid, connecting pins one at a time
// to the grown net region.
func routeNet(g *Grid, sc *searchScratch, res *Result, net string, sig int32, pins []geom.Point, rule Rule) error {
	paths, err := netPaths(g, sc, sig, pins, rule)
	// Partial progress stays claimed and booked even when a later pin
	// fails — the rip-up pass rebuilds the fabric from scratch anyway.
	recordPaths(res, net, paths)
	if err != nil {
		return err
	}
	if rule.Shield {
		res.ShieldLen += addShields(g, sig)
	}
	if rule.SpacingTracks > 0 {
		// Spacing is symmetric: reserve a clearance halo so nets routed
		// later cannot violate this net's rule either.
		addHalo(g, sig, rule.SpacingTracks)
	}
	return nil
}

// netPaths is the search phase of one net: seed the first pin, then maze-
// route every remaining pin to the grown region, claiming cells on g as it
// goes. Paths found before an error are returned with it, so partial
// progress is booked like a success.
func netPaths(g *Grid, sc *searchScratch, sig int32, pins []geom.Point, rule Rule) ([][]node, error) {
	// Seed: first pin on both layers. Pins claim at width 1 — the width
	// rule governs wires; pad cells must not stomp on neighbors' halos.
	seed := pins[0]
	pinRule := Rule{WidthTracks: 1}
	claim(g, sig, node{0, seed.X, seed.Y}, pinRule)
	var paths [][]node
	for _, target := range pins[1:] {
		if g.owner(0, target.X, target.Y) == sig {
			continue // already on the net (shared pin cell)
		}
		path, err := bfs(g, sc, sig, node{0, target.X, target.Y}, rule)
		if err != nil {
			return paths, err
		}
		claimPath(g, sig, path, rule)
		paths = append(paths, path)
	}
	return paths, nil
}

// claimPath claims a found path. The pin landing (the last node) claims at
// width 1 like the seed did, and the success cell (path[0]) is already
// owned by the net — re-claiming it at full width would stomp neighbors
// the search never verified.
func claimPath(g *Grid, sig int32, path []node, rule Rule) {
	for i := 1; i < len(path); i++ {
		if i == len(path)-1 {
			claim(g, sig, path[i], Rule{WidthTracks: 1})
		} else {
			claim(g, sig, path[i], rule)
		}
	}
}

// recordPaths books the segments, wirelength and via counts of a net's
// search paths into the result.
func recordPaths(res *Result, net string, paths [][]node) {
	for _, path := range paths {
		for i := 1; i < len(path); i++ {
			p, n := path[i-1], path[i]
			if p.l != n.l {
				res.Vias++
			} else {
				res.Wirelength++
				res.Segments[net] = append(res.Segments[net], Segment{
					Layer: n.l, A: geom.Pt(p.x, p.y), B: geom.Pt(n.x, n.y)})
			}
		}
	}
}

// addHalo reserves free cells within dist perpendicular tracks of the
// net's wires using the clearance marker "~net" — an obstacle to foreign
// nets that audits ignore, distinct from the shield marker because a
// clearance halo is empty space, not a grounded wire.
func addHalo(g *Grid, sig int32, dist int) {
	marker := sig | kindHalo
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig {
					continue
				}
				for s := 1; s <= dist; s++ {
					for _, d := range [2]int{-s, s} {
						c := node{l, x, y}
						if l == 0 {
							c.y += d
						} else {
							c.x += d
						}
						if c.x >= 0 && c.y >= 0 && c.x < g.W && c.y < g.H && g.owner(c.l, c.x, c.y) == cellEmpty {
							g.set(c.l, c.x, c.y, marker)
						}
					}
				}
			}
		}
	}
}

// claim marks a cell (and its width expansion) as owned by net.
func claim(g *Grid, sig int32, n node, rule Rule) {
	g.set(n.l, n.x, n.y, sig)
	// Width expansion perpendicular to the layer direction.
	for w := 1; w < rule.WidthTracks; w++ {
		if n.l == 0 {
			g.set(n.l, n.x, n.y+w, sig)
		} else {
			g.set(n.l, n.x+w, n.y, sig)
		}
	}
}

// usable reports whether the net may occupy cell n under its rule: the
// cell (and width expansion) must be free or already the net's own, and
// the spacing clearance must hold against foreign nets.
func usable(g *Grid, sig int32, n node, rule Rule) bool {
	for i := 0; i < rule.WidthTracks; i++ {
		c := n
		if n.l == 0 {
			c.y += i
		} else {
			c.x += i
		}
		if c.x < 0 || c.y < 0 || c.x >= g.W || c.y >= g.H {
			return false
		}
		if o := g.owner(c.l, c.x, c.y); o != cellEmpty && !ownCell(o, sig) {
			return false
		}
		// Spacing: foreign occupants within the clearance window fail.
		// Pin landing pads are exempt — spacing rules govern parallel
		// wires, not fixed pin geometry.
		if g.isPin(c.x, c.y) {
			continue
		}
		for s := 1; s <= rule.SpacingTracks; s++ {
			for _, d := range [2]int{-s, s} {
				c2 := c
				if c.l == 0 {
					c2.y += d
				} else {
					c2.x += d
				}
				if g.isPin(c2.x, c2.y) {
					continue
				}
				// Spacing measures to real foreign wires; shields, halos
				// and blockages are not aggressors.
				if spacingAggressor(g.owner(c2.l, c2.x, c2.y), sig) {
					return false
				}
			}
		}
	}
	return true
}

// bfs is a uniform-cost search from the target back to any cell already
// owned by net. The cost function is congestion-aware: vias cost extra and
// cells adjacent to pin landing pads are discouraged, so wires prefer open
// fabric and leave pin escapes for the nets that need them. All visited/
// cost/frontier state lives in sc, the route's one search scratch
// (scratch.go); the only allocation per call is the returned path, which
// the caller retains.
func bfs(g *Grid, sc *searchScratch, sig int32, from node, rule Rule) ([]node, error) {
	// The pin landing needs only its own cell (width rules govern wires).
	if !usable(g, sig, from, Rule{WidthTracks: 1}) {
		return nil, fmt.Errorf("%w: net %s pin cell blocked", ErrRoute, g.tab.decode(sig))
	}
	sc.searches.Inc()
	viaCost, pinAdjCost := 3, 4
	if g.plainBFS {
		viaCost, pinAdjCost = 1, 0
	}
	// Without a width or spacing window, usable only re-reads the cell the
	// owner test below has just accepted, so it is called only when the
	// rule needs one.
	window := rule.WidthTracks > 1 || rule.SpacingTracks > 0
	pins := g.pin
	w := g.W
	lsize := w * g.H
	sc.reset()
	start := int32(from.l*lsize + from.y*w + from.x)
	sc.setDist(start, 0, -1)
	sc.push(0, start)
	maxCost := 0
	for d := 0; d <= maxCost+1; d++ {
		if d >= len(sc.buckets) {
			continue
		}
		for len(sc.buckets[d]) > 0 {
			bkt := sc.buckets[d]
			ci := bkt[len(bkt)-1]
			sc.buckets[d] = bkt[:len(bkt)-1]
			if sc.dist[ci] != int32(d) {
				continue // stale entry
			}
			cur := node{int(ci) / lsize, int(ci) % w, (int(ci) % lsize) / w}
			if g.owner(cur.l, cur.x, cur.y) == sig {
				// Reconstruct target-to-net order: count first, then fill,
				// so the path is a single right-sized allocation.
				steps := 1
				for i := ci; sc.prev[i] >= 0; i = sc.prev[i] {
					steps++
				}
				path := make([]node, steps)
				i := ci
				for j := 0; ; j++ {
					path[j] = node{int(i) / lsize, int(i) % w, (int(i) % lsize) / w}
					p := sc.prev[i]
					if p < 0 {
						break
					}
					i = p
				}
				return path, nil
			}
			for t := 0; t < 3; t++ {
				nb := neighbor(cur, t)
				owner := g.owner(nb.l, nb.x, nb.y)
				// An accepted owner means nb is inside the die: every
				// out-of-bounds cell reads as blocked.
				if !(owner == sig || (owner == cellEmpty || ownCell(owner, sig)) && (!window || usable(g, sig, nb, rule))) {
					continue
				}
				step := 1
				if nb.l != cur.l {
					step = viaCost
				}
				if owner != sig && pins[nb.y*w+nb.x]&pinNear != 0 {
					step += pinAdjCost
				}
				nd := d + step
				ni := int32(nb.l*lsize + nb.y*w + nb.x)
				if sc.visited(ni) && int(sc.dist[ni]) <= nd {
					continue
				}
				sc.setDist(ni, int32(nd), ci)
				sc.push(nd, ni)
				if nd > maxCost {
					maxCost = nd
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: net %s unroutable", ErrRoute, g.tab.decode(sig))
}

// neighbor yields legal move t (0,1 = along the layer's direction, 2 =
// via), matching the expansion order of the original slice-returning
// helper without its per-visit allocation.
func neighbor(n node, t int) node {
	switch t {
	case 0:
		if n.l == 0 {
			return node{0, n.x - 1, n.y}
		}
		return node{1, n.x, n.y - 1}
	case 1:
		if n.l == 0 {
			return node{0, n.x + 1, n.y}
		}
		return node{1, n.x, n.y + 1}
	default:
		return node{1 - n.l, n.x, n.y}
	}
}

// addShields occupies free tracks adjacent to the net's wires with shield
// markers and returns the shield wirelength added.
func addShields(g *Grid, sig int32) int {
	added := 0
	marker := sig | kindShield
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig {
					continue
				}
				for _, d := range [2]int{-1, 1} {
					a := node{l, x, y}
					if l == 0 {
						a.y += d
					} else {
						a.x += d
					}
					if a.x >= 0 && a.y >= 0 && a.x < g.W && a.y < g.H && g.owner(a.l, a.x, a.y) == cellEmpty {
						g.set(a.l, a.x, a.y, marker)
						added++
					}
				}
			}
		}
	}
	return added
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
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig {
					continue
				}
				for _, d := range [2]int{-1, 1} {
					a := node{l, x, y}
					if l == 0 {
						a.y += d
					} else {
						a.x += d
					}
					if o := g.owner(a.l, a.x, a.y); foreignSignal(o, sig) {
						runs[o]++
					}
				}
			}
		}
	}
	for o, c := range runs {
		n := g.tab.decode(o)
		if c > run || (c == run && n < worstNet) {
			worstNet, run = n, c
		}
	}
	return worstNet, run
}

// actualMinWidth computes the narrowest point of a routed net in tracks.
func (r *Result) actualMinWidth(net string) int {
	g := r.grid
	sig, ok := g.tab.lookup(net)
	if !ok {
		return 0
	}
	min := 1 << 30
	found := false
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig || g.isPin(x, y) {
					continue
				}
				found = true
				// Count contiguous own cells perpendicular.
				w := 1
				if l == 0 {
					for d := 1; g.owner(l, x, y+d) == sig; d++ {
						w++
					}
					for d := 1; g.owner(l, x, y-d) == sig; d++ {
						w++
					}
				} else {
					for d := 1; g.owner(l, x+d, y) == sig; d++ {
						w++
					}
					for d := 1; g.owner(l, x-d, y) == sig; d++ {
						w++
					}
				}
				if w < min {
					min = w
				}
			}
		}
	}
	if !found {
		return 0
	}
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
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig || g.isPin(x, y) {
					continue
				}
				for s := 1; s <= window; s++ {
					for _, d := range [2]int{-s, s} {
						c := node{l, x, y}
						if l == 0 {
							c.y += d
						} else {
							c.x += d
						}
						if g.isPin(c.x, c.y) {
							continue
						}
						if o := g.owner(c.l, c.x, c.y); foreignSignal(o, sig) {
							if s < min {
								min = s
							}
						}
					}
				}
			}
		}
	}
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
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != sig || g.isPin(x, y) {
					continue
				}
				for _, d := range [2]int{-1, 1} {
					a := node{l, x, y}
					if l == 0 {
						a.y += d
					} else {
						a.x += d
					}
					if a.x < 0 || a.y < 0 || a.x >= g.W || a.y >= g.H {
						continue
					}
					total++
					o := g.owner(a.l, a.x, a.y)
					if ownCell(o, sig) || isShieldOf(o, sig) || g.isPin(a.x, a.y) {
						covered++
					}
				}
			}
		}
	}
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

package route

import (
	"cadinterop/internal/geom"
	"cadinterop/internal/obs"
	"cadinterop/internal/phys"
)

// RouteIncremental reroutes a design after a localized edit, reusing the
// previous result for every net the edit cannot have affected. prev must
// be the Result of a full Route (or an earlier RouteIncremental) over the
// same die, pitch and options; dirty is the edited region in DBU — the
// union of the moved instances' old and new footprints.
//
// The contract is the repo's strongest identity bar: the returned Result
// is byte-identical to Route(d, opts) — same Segments, totals, Failed set
// and cell-for-cell grid — while only the nets whose pins, wires, search
// footprint or rule halo interact with the dirty region are ripped up and
// rerouted (ReroutedNets lists them). Whenever any soundness condition
// below cannot be proven, the function falls back to a full Route and
// records the reason in IncrementalFallback, so callers never trade
// correctness for speed.
//
// Soundness sketch (the incremental_quick_test.go oracle enforces it):
//
//   - Every routed net of prev carries its search probe box — the bounding
//     box of every cell its searches examined (bfs tracks it as it
//     expands). The search reads fabric only at examined cells plus their
//     width/spacing/near-pin windows, so the probe box expanded by that
//     rule margin bounds the net's entire read footprint.
//   - Invalidation is order-aware. A survivor's search observed a dirty
//     net's wires only if the dirty net routed BEFORE it in canonical
//     order — later nets' fabric did not exist yet. So a dirty net's old
//     write box rips up only survivors positioned after it in the previous
//     order. Pin reservations are the exception: pendings for every net
//     exist before any search runs, so cells where pins appeared or
//     vanished invalidate any survivor whose read box contains them,
//     regardless of order.
//   - The dirty set is grown to a fixpoint under those two rules. At the
//     fixpoint, every surviving net's searches read only fabric that is
//     provably identical in a full rerun, so its paths, shields and halos
//     replay verbatim — they are simply kept in place on a cloned grid.
//   - Dirty nets are erased from the cloned grid (interned IDs make this a
//     flat slab scan) and rerouted serially in the new canonical order on
//     a recording view. If a search reads a cell owned by a net that
//     routes later in canonical order — state a full run would not have
//     produced yet — that net is ripped up too and the replay retries.
//   - After replay, a rerouted net's new write box must not touch the read
//     box of any survivor positioned after it in the new order (such a
//     survivor's search would have observed the new wires in a full
//     rerun); offenders are ripped up and the replay retries, a few
//     times, then falls back.
func RouteIncremental(prev *Result, d *phys.Design, dirty geom.Rect, opts Options) (*Result, error) {
	if opts.Pitch <= 0 {
		opts.Pitch = 10
	}
	fallback := func(reason string) (*Result, error) {
		obsFallback(opts.Metrics, reason)
		res, err := Route(d, opts)
		if res != nil {
			res.IncrementalFallback = reason
		}
		return res, err
	}

	switch {
	case prev == nil || prev.grid == nil || prev.pins == nil:
		return fallback("no-previous")
	case len(prev.Failed) > 0:
		return fallback("prev-had-failures")
	case !prev.pass0:
		// A clean result that came out of the rip-up loop was routed in a
		// rotated order the serial replay cannot reproduce.
		return fallback("prev-not-canonical")
	case prev.fp != opts.Fingerprint():
		return fallback("options-changed")
	case prev.die != d.Die || prev.pitch != opts.Pitch:
		return fallback("geometry-changed")
	}

	newPins, err := gatherNetPins(d, opts)
	if err != nil {
		return nil, err
	}
	newOrder := orderNets(newPins, opts)
	pos := make(map[string]int, len(newOrder))
	for i, n := range newOrder {
		pos[n] = i
	}
	prevPos := make(map[string]int, len(prev.order))
	for i, n := range prev.order {
		prevPos[n] = i
	}

	// Seed the dirty set with every net whose pin sequence changed (moved,
	// added or removed pins — including nets that appeared or vanished).
	// Cells where pins changed invalidate order-independently (pendings and
	// pin flags exist before any search); a dirty net's old wires invalidate
	// only survivors that routed after it.
	dirtyNets := make(map[string]bool)
	orderless := []geom.Rect{gridBox(dirty, prev.die, opts.Pitch)}
	var ordered []orderedBox
	markDirty := func(n string) {
		if dirtyNets[n] {
			return
		}
		dirtyNets[n] = true
		if p, ok := prevPos[n]; ok {
			ordered = append(ordered, orderedBox{prev.writeBox(n, prev.pins[n], opts), p})
		}
	}
	for n, ps := range newPins {
		if !pinsEqual(prev.pins[n], ps) {
			markDirty(n)
			orderless = append(orderless, changedPinBox(prev.pins[n], ps))
		}
	}
	for n, ps := range prev.pins {
		if _, ok := newPins[n]; !ok {
			markDirty(n)
			orderless = append(orderless, pointsBox(ps))
		}
	}

	for attempt := 0; attempt < 4; attempt++ {
		// Fixpoint: pull in every previously routed net whose read box
		// touches an orderless box, or the old write box of a dirty net
		// that routed before it.
		for grown := true; grown; {
			grown = false
			for _, n := range prev.order {
				if dirtyNets[n] {
					continue
				}
				rb := prev.readBox(n, opts)
				hit := overlapsAny(orderless, rb)
				if !hit {
					pp := prevPos[n]
					for _, e := range ordered {
						if pp > e.after && rb.Overlaps(e.box) {
							hit = true
							break
						}
					}
				}
				if hit {
					markDirty(n)
					grown = true
				}
			}
		}

		reroute := make([]string, 0, len(dirtyNets))
		for _, n := range newOrder {
			if dirtyNets[n] {
				reroute = append(reroute, n)
			}
		}
		if 2*len(reroute) > len(newOrder) {
			return fallback("dirty-set-too-large")
		}

		res, escalate, reason := replayIncremental(prev, dirtyNets, reroute, newPins, pos, opts)
		if reason != "" {
			return fallback(reason)
		}
		if len(escalate) > 0 {
			// The replay proved these survivors would have observed the
			// rerouted nets' state in a full rerun: rip them up too.
			for _, n := range escalate {
				markDirty(n)
			}
			continue
		}
		stampReplayMeta(res, d, opts, newPins, newOrder, true)
		res.ReroutedNets = reroute
		if reg := opts.Metrics; reg != nil {
			reg.Counter("route.incremental.rerouted").Add(int64(len(reroute)))
			reg.Counter("route.incremental.kept").Add(int64(len(newOrder) - len(reroute)))
		}
		recordRouteMetrics(opts.Metrics, res, len(newOrder), 0)
		return res, nil
	}
	return fallback("escalation-diverged")
}

// orderedBox is an invalidation region that only affects nets routed after
// position `after` in the previous canonical order — the fabric it
// describes did not exist during earlier nets' searches.
type orderedBox struct {
	box   geom.Rect
	after int
}

// replayIncremental rebuilds the grid with the dirty nets erased, reroutes
// them in canonical order, and reassembles the result. It returns the
// names of surviving nets the replay proved unsound to keep — they read or
// were read by rerouted fabric across the order boundary — for the caller
// to rip up and retry, or a non-empty fallback reason when retrying cannot
// help.
func replayIncremental(prev *Result, dirtyNets map[string]bool, reroute []string, newPins map[string][]geom.Point, pos map[string]int, opts Options) (*Result, []string, string) {
	g := prev.grid
	// Share the previous grid's scratch/view pools: the clone has the same
	// dimensions, and re-allocating O(grid) search scratch to reroute a
	// handful of dirty nets would swamp the savings.
	ng := &Grid{W: g.W, H: g.H, Pitch: g.Pitch, tab: g.tab.clone(),
		plainBFS: opts.PlainBFS, pin: make([]uint8, g.W*g.H), pools: g.pools}
	ng.own[0] = append([]int32(nil), g.own[0]...)
	ng.own[1] = append([]int32(nil), g.own[1]...)
	ng.observe(opts.Metrics)

	// Erase every cell of every dirty net — signal, pending, shield and
	// halo alike — by net index on the flat slabs.
	dirtyIdx := make(map[int32]bool, len(dirtyNets))
	for n := range dirtyNets {
		if i, ok := ng.tab.ids[n]; ok {
			dirtyIdx[i] = true
		}
	}
	for l := 0; l < 2; l++ {
		slab := ng.own[l]
		for i, o := range slab {
			if isNetCell(o) && dirtyIdx[o>>2] {
				slab[i] = cellEmpty
			}
		}
	}
	// A dirty net's new pin cell may hold a surviving net's pending marker
	// that the new reservation pass must be allowed to re-contest (the
	// sorted-order winner can change when a pin arrives). Clear those
	// pendings; reservePins rebuilds them deterministically.
	for n := range dirtyNets {
		for _, p := range newPins[n] {
			if p.X >= 0 && p.Y >= 0 && p.X < ng.W && p.Y < ng.H {
				if i := p.Y*ng.W + p.X; cellKind(ng.own[0][i]) == kindPending && isNetCell(ng.own[0][i]) {
					ng.own[0][i] = cellEmpty
				}
			}
		}
	}
	ng.tab.grow(len(newPins) - len(ng.tab.ids))
	reservePins(ng, newPins)

	res := &Result{Segments: make(map[string][]Segment, len(newPins)), grid: ng, rules: opts.Rules}

	// Keep the survivors: their paths, vias and shields replay verbatim,
	// so the totals are reassembled from per-net accounting without a
	// single search. Iterate the routed order, not the segments map — a
	// net whose route is a bare via has vias and reach but no segments.
	for _, n := range prev.order {
		if dirtyNets[n] {
			continue
		}
		if segs, ok := prev.Segments[n]; ok {
			res.Segments[n] = segs
			res.Wirelength += len(segs)
		}
		res.Vias += prev.netVias[n]
		if v := prev.netVias[n]; v > 0 {
			if res.netVias == nil {
				res.netVias = make(map[string]int)
			}
			res.netVias[n] = v
		}
		res.addShieldLen(n, prev.netShield[n])
		res.setProbe(n, prev.probe[n])
	}

	// Reroute the dirty nets in new canonical order on recording views,
	// committing each onto the live grid once its reads prove sound.
	var escalate []string
	flagged := make(map[string]bool)
	for _, net := range reroute {
		sig := ng.tab.intern(net)
		rule := normRule(opts.Rules[net])
		v := newSpecView(ng)
		paths, probe, err := netPaths(v, sig, newPins[net], rule)
		if err != nil {
			// A blocking survivor queued for escalation may be the cause:
			// prefer the retry over a hard fallback.
			ng.putView(v)
			if len(escalate) > 0 {
				return nil, escalate, ""
			}
			return nil, nil, "reroute-failed"
		}
		// Order soundness: the rebuilt grid holds the final state of every
		// surviving net, including ones that route after this net in
		// canonical order. A full run would not have produced those cells
		// yet, so any survivor this search observed across the order
		// boundary must be ripped up too.
		later, ok := laterNetsRead(ng, v.reads, pos, pos[net], flagged)
		if !ok {
			ng.putView(v)
			return nil, nil, "read-unknown-net"
		}
		escalate = append(escalate, later...)
		commitPaths(ng, res, net, sig, newPins[net], paths, probe, rule)
		ng.putView(v)
	}
	if len(escalate) > 0 {
		return nil, escalate, ""
	}

	// New-write containment: a rerouted net's new occupancy must stay out
	// of the read footprint of every survivor positioned after it in the
	// new order — that survivor's search would have observed the new wires
	// in a full rerun.
	for _, net := range reroute {
		nb := pointsBox(newPins[net])
		for _, s := range res.Segments[net] {
			nb = nb.Union(geom.Rect{Min: s.A, Max: s.A}).Union(geom.Rect{Min: s.B, Max: s.B})
		}
		nb = nb.Expand(writeMargin(opts.Rules[net]))
		dp := pos[net]
		for _, s := range prev.order {
			if dirtyNets[s] || flagged[s] {
				continue
			}
			if sp, ok := pos[s]; ok && sp > dp && prev.readBox(s, opts).Overlaps(nb) {
				flagged[s] = true
				escalate = append(escalate, s)
			}
		}
	}
	return res, escalate, ""
}

// readBox bounds every cell net's searches could have examined in prev:
// the recorded probe box (which already contains the pins) expanded by the
// rule's probe extent — width and spacing windows, the pin-adjacency
// probe, the shield ring and a unit of slack.
func (r *Result) readBox(net string, opts Options) geom.Rect {
	rule := normRule(opts.Rules[net])
	b, ok := r.probe[net]
	if !ok {
		b = pointsBox(r.pins[net])
	}
	return b.Union(pointsBox(r.pins[net])).Expand(rule.WidthTracks + rule.SpacingTracks + 4)
}

// writeBox bounds every cell net occupies in prev — pins, wires, width
// expansion, shields, halos and pending markers.
func (r *Result) writeBox(net string, pins []geom.Point, opts Options) geom.Rect {
	b := pointsBox(pins)
	for _, s := range r.Segments[net] {
		b = b.Union(geom.Rect{Min: s.A, Max: s.A}).Union(geom.Rect{Min: s.B, Max: s.B})
	}
	return b.Expand(writeMargin(opts.Rules[net]))
}

// writeMargin is how far a net's occupancy can extend beyond its pin and
// wire cells: width expansion plus the larger of the clearance halo and
// the shield ring, with a unit of slack.
func writeMargin(r Rule) int {
	r = normRule(r)
	return r.WidthTracks + r.SpacingTracks + 1
}

// gridBox converts a DBU rectangle to an inclusive grid-cell box with one
// cell of slack on every side.
func gridBox(r geom.Rect, die geom.Rect, pitch int) geom.Rect {
	return geom.Rect{
		Min: geom.Pt(floorDiv(r.Min.X-die.Min.X, pitch), floorDiv(r.Min.Y-die.Min.Y, pitch)),
		Max: geom.Pt(floorDiv(r.Max.X-die.Min.X, pitch)+1, floorDiv(r.Max.Y-die.Min.Y, pitch)+1),
	}.Expand(1)
}

// floorDiv divides rounding toward negative infinity (grid coordinates
// near the die origin must not round toward zero).
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// pointsBox is the inclusive bounding box of a point set; an empty set
// yields a degenerate far-away box that overlaps nothing on the grid.
func pointsBox(ps []geom.Point) geom.Rect {
	if len(ps) == 0 {
		return geom.Rect{Min: geom.Pt(-1<<30, -1<<30), Max: geom.Pt(-1<<30, -1<<30)}
	}
	return pinBBox(ps)
}

// pinsEqual compares two pin sequences exactly (order is deterministic:
// sorted instances, sorted pins).
func pinsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// overlapsAny reports whether b touches any box of the region cover.
func overlapsAny(boxes []geom.Rect, b geom.Rect) bool {
	for _, r := range boxes {
		if r.Overlaps(b) {
			return true
		}
	}
	return false
}

// laterNetsRead collects the nets positioned after self in the new
// canonical order whose committed cells (signal, shield or halo — pendings
// exist from reservation time) any recorded fall-through read observed,
// skipping nets already flagged. The bool is false when a read observed a
// net absent from the new order entirely.
func laterNetsRead(g *Grid, reads []int32, pos map[string]int, self int, flagged map[string]bool) ([]string, bool) {
	var later []string
	lsize := g.W * g.H
	for _, i := range reads {
		l := int(i) / lsize
		rest := int(i) % lsize
		o := g.own[l][rest]
		if !isNetCell(o) || cellKind(o) == kindPending {
			continue
		}
		name := g.tab.strs[o>>2][0]
		if flagged[name] {
			continue
		}
		p, ok := pos[name]
		if !ok {
			return nil, false
		}
		if p > self {
			flagged[name] = true
			later = append(later, name)
		}
	}
	return later, true
}

// changedPinBox bounds the cells where two pin sequences differ — the pin
// flags and pending reservations there changed, which invalidates any
// search that probed them regardless of routing order.
func changedPinBox(old, new []geom.Point) geom.Rect {
	oldSet := make(map[geom.Point]bool, len(old))
	for _, p := range old {
		oldSet[p] = true
	}
	newSet := make(map[geom.Point]bool, len(new))
	for _, p := range new {
		newSet[p] = true
	}
	var diff []geom.Point
	for _, p := range old {
		if !newSet[p] {
			diff = append(diff, p)
		}
	}
	for _, p := range new {
		if !oldSet[p] {
			diff = append(diff, p)
		}
	}
	return pointsBox(diff)
}

// obsFallback counts a fallback (nil-safe).
func obsFallback(reg *obs.Registry, reason string) {
	if reg != nil {
		reg.Counter("route.incremental.fallbacks").Inc()
	}
}

package place

// The parent placer, kept verbatim as the reference the dense-index Place
// is compared against (TestQuickPlaceEquivalence): its Place, bfsOrder and
// string-keyed netIndex under ref names, and phys.Design.HPWL as it was
// before it kept one running bounding box per net, so the reference shares
// no HPWL code with the placer under test. Only the names it calls by are
// changed; hitKeepout is production's, which is unchanged.

import (
	"fmt"
	"math/rand"
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/phys"
)

// refPlace is the parent's Place.
func refPlace(d *phys.Design, opts Options) (*Result, error) {
	if opts.SwapPasses == 0 {
		opts.SwapPasses = 4
	}
	top := d.TopCell()
	names := top.InstanceNames()
	if len(names) == 0 {
		return &Result{}, nil
	}
	rowH := d.Lib.Tech.SiteHeight
	if rowH <= 0 {
		return nil, fmt.Errorf("%w: site height %d", ErrPlace, rowH)
	}

	order := refBfsOrder(d, names)

	// Pack rows left-to-right, skipping keepouts.
	type slot struct {
		pos  geom.Point
		w, h int
	}
	var placedOrder []string
	rows := 0
	y := d.Die.Min.Y
	i := 0
	for i < len(order) {
		if y+rowH > d.Die.Max.Y {
			return nil, fmt.Errorf("%w: design does not fit die (placed %d of %d)", ErrPlace, i, len(order))
		}
		x := d.Die.Min.X
		rows++
		for i < len(order) {
			inst := top.Instances[order[i]]
			m, _ := d.Lib.Macro(inst.Master)
			if x+m.Size.X > d.Die.Max.X {
				break // next row
			}
			r := geom.R(x, y, x+m.Size.X, y+rowH)
			if ko := hitKeepout(r, opts.Keepouts); ko != nil {
				// Jump past the keepout.
				x = ko.Max.X
				continue
			}
			d.Placements[order[i]] = phys.Placement{Pos: geom.Pt(x, y), Orient: geom.R0}
			placedOrder = append(placedOrder, order[i])
			x += m.Size.X
			i++
		}
		y += rowH
	}

	res := &Result{Rows: rows}
	hp, err := refHPWL(d)
	if err != nil {
		return nil, err
	}
	res.InitialHPWL = hp

	// Pairwise swap improvement among equal-width cells.
	idx := refBuildNetIndex(d)
	rng := rand.New(rand.NewSource(opts.Seed))
	n := len(placedOrder)
	for pass := 0; pass < opts.SwapPasses; pass++ {
		for trial := 0; trial < n*4; trial++ {
			a := placedOrder[rng.Intn(n)]
			b := placedOrder[rng.Intn(n)]
			if a == b {
				continue
			}
			ma, _ := d.Lib.Macro(top.Instances[a].Master)
			mb, _ := d.Lib.Macro(top.Instances[b].Master)
			if ma.Size != mb.Size {
				continue
			}
			before := idx.hpwlAround(d, a) + idx.hpwlAround(d, b)
			pa, pb := d.Placements[a], d.Placements[b]
			d.Placements[a], d.Placements[b] = pb, pa
			after := idx.hpwlAround(d, a) + idx.hpwlAround(d, b)
			if after >= before {
				d.Placements[a], d.Placements[b] = pa, pb
				continue
			}
			res.Swaps++
		}
	}
	hp, err = refHPWL(d)
	if err != nil {
		return nil, err
	}
	res.FinalHPWL = hp
	return res, nil
}

// refBfsOrder is the parent's bfsOrder: it orders instances by connectivity from the most-connected seed,
// so tightly coupled cells land near each other in the packing.
func refBfsOrder(d *phys.Design, names []string) []string {
	top := d.TopCell()
	// adjacency via shared nets
	netInsts := make(map[string][]string)
	for _, in := range names {
		for _, net := range top.Instances[in].Conns {
			netInsts[net] = append(netInsts[net], in)
		}
	}
	degree := make(map[string]int)
	for _, in := range names {
		degree[in] = len(top.Instances[in].Conns)
	}
	seed := names[0]
	for _, in := range names {
		if degree[in] > degree[seed] || (degree[in] == degree[seed] && in < seed) {
			seed = in
		}
	}
	visited := map[string]bool{}
	var order []string
	queue := []string{seed}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if visited[cur] {
			continue
		}
		visited[cur] = true
		order = append(order, cur)
		var nbrs []string
		for _, net := range top.Instances[cur].Conns {
			nbrs = append(nbrs, netInsts[net]...)
		}
		sort.Strings(nbrs)
		for _, nb := range nbrs {
			if !visited[nb] {
				queue = append(queue, nb)
			}
		}
	}
	// Disconnected leftovers in name order.
	for _, in := range names {
		if !visited[in] {
			order = append(order, in)
		}
	}
	return order
}

// refNetIndex is the parent's netIndex, which accelerates incremental
// HPWL deltas.
type refNetIndex struct {
	// instNets lists nets touching each instance.
	instNets map[string][]string
	// netPins lists (inst, pin) per net.
	netPins map[string][][2]string
}

func refBuildNetIndex(d *phys.Design) *refNetIndex {
	top := d.TopCell()
	ni := &refNetIndex{
		instNets: make(map[string][]string),
		netPins:  make(map[string][][2]string),
	}
	for _, in := range top.InstanceNames() {
		inst := top.Instances[in]
		seen := map[string]bool{}
		pins := make([]string, 0, len(inst.Conns))
		for pin := range inst.Conns {
			pins = append(pins, pin)
		}
		sort.Strings(pins)
		for _, pin := range pins {
			net := inst.Conns[pin]
			ni.netPins[net] = append(ni.netPins[net], [2]string{in, pin})
			if !seen[net] {
				seen[net] = true
				ni.instNets[in] = append(ni.instNets[in], net)
			}
		}
	}
	return ni
}

// hpwlAround sums HPWL over nets touching one instance.
func (ni *refNetIndex) hpwlAround(d *phys.Design, inst string) int {
	total := 0
	for _, net := range ni.instNets[inst] {
		pins := ni.netPins[net]
		if len(pins) < 2 {
			continue
		}
		first := true
		var minX, minY, maxX, maxY int
		for _, ip := range pins {
			p, err := d.PinPos(ip[0], ip[1])
			if err != nil {
				continue
			}
			if first {
				minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

// refHPWL is the parent's Design.HPWL: it computes the half-perimeter
// wirelength over all nets with at least two placed pins — the standard
// placement quality metric.
func refHPWL(d *phys.Design) (int, error) {
	c := d.TopCell()
	// net -> points
	pts := make(map[string][]geom.Point)
	for _, in := range c.InstanceNames() {
		inst := c.Instances[in]
		for pin, net := range inst.Conns {
			p, err := d.PinPos(in, pin)
			if err != nil {
				return 0, err
			}
			pts[net] = append(pts[net], p)
		}
	}
	total := 0
	for _, ps := range pts {
		if len(ps) < 2 {
			continue
		}
		minX, minY := ps[0].X, ps[0].Y
		maxX, maxY := minX, minY
		for _, p := range ps[1:] {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total, nil
}

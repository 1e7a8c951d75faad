// Package place is a row-based standard-cell placer: BFS-ordered initial
// packing followed by randomized pairwise-swap improvement on half-perimeter
// wirelength. It is one of the "real tools" the Section 4 backplane drives,
// so that constraint loss in translation shows up as measurable quality
// degradation rather than hand-waving.
package place

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"cadinterop/internal/geom"
	"cadinterop/internal/phys"
)

// ErrPlace reports placement failures.
var ErrPlace = errors.New("place: error")

// Options configures placement.
type Options struct {
	// Seed makes the improvement pass deterministic.
	Seed int64
	// SwapPasses is the number of improvement sweeps (default 4).
	SwapPasses int
	// Keepouts are regions no cell may overlap.
	Keepouts []geom.Rect
}

// Result reports placement quality.
type Result struct {
	InitialHPWL int
	FinalHPWL   int
	Swaps       int
	Rows        int
}

// Place assigns a legal location to every instance of d's top cell.
func Place(d *phys.Design, opts Options) (*Result, error) {
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

	ix := newIndex(d, names)
	order := ix.bfsOrder()

	// Pack rows left-to-right, skipping keepouts. Each placement lands in
	// d.Placements at once, so a design that does not fit keeps the ones
	// made before it ran out of rows.
	pl := make([]phys.Placement, len(names))
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
			in := order[i]
			size := ix.size[in]
			if x+size.X > d.Die.Max.X {
				break // next row
			}
			r := geom.R(x, y, x+size.X, y+rowH)
			if ko := hitKeepout(r, opts.Keepouts); ko != nil {
				// Jump past the keepout.
				x = ko.Max.X
				continue
			}
			pl[in] = phys.Placement{Pos: geom.Pt(x, y), Orient: geom.R0}
			d.Placements[names[in]] = pl[in]
			x += size.X
			i++
		}
		y += rowH
	}

	res := &Result{Rows: rows}
	hp, err := d.HPWL()
	if err != nil {
		return nil, err
	}
	res.InitialHPWL = hp

	// Pairwise swap improvement among equal-width cells, on pl. Every
	// instance is placed by now, so order lists them all; d.Placements
	// takes the result once the loop ends.
	rng := rand.New(rand.NewSource(opts.Seed))
	n := len(order)
	for pass := 0; pass < opts.SwapPasses; pass++ {
		for trial := 0; trial < n*4; trial++ {
			a := order[rng.Intn(n)]
			b := order[rng.Intn(n)]
			if a == b || ix.size[a] != ix.size[b] {
				continue
			}
			before := ix.hpwlAround(pl, a) + ix.hpwlAround(pl, b)
			pl[a], pl[b] = pl[b], pl[a]
			after := ix.hpwlAround(pl, a) + ix.hpwlAround(pl, b)
			if after >= before {
				pl[a], pl[b] = pl[b], pl[a]
				continue
			}
			res.Swaps++
		}
	}
	for i, p := range pl {
		d.Placements[names[i]] = p
	}
	hp, err = d.HPWL()
	if err != nil {
		return nil, err
	}
	res.FinalHPWL = hp
	return res, nil
}

func hitKeepout(r geom.Rect, kos []geom.Rect) *geom.Rect {
	for i := range kos {
		if inter, ok := r.Intersect(kos[i]); ok && inter.Area() > 0 {
			return &kos[i]
		}
	}
	return nil
}

// index is Place's dense view of the top cell, built once per call.
// Instance i is the i-th name in InstanceNames order, so sorting instance
// numbers sorts names; nets are numbered as they are first met.
type index struct {
	// size is each instance's macro size, degree its number of
	// connections.
	size   []geom.Point
	degree []int
	// nets[netAt[i]:netAt[i+1]] are instance i's distinct nets, in pin
	// name order.
	nets, netAt []int32
	// pins[pinAt[n]:pinAt[n+1]] are net n's pins, in instance order.
	pins  []pin
	pinAt []int32
}

// pin is one connection of an instance to a net, with the pin's centre in
// the instance's macro frame.
type pin struct {
	net, inst int32
	centre    geom.Point
}

func newIndex(d *phys.Design, names []string) *index {
	top := d.TopCell()
	ix := &index{
		size:   make([]geom.Point, len(names)),
		degree: make([]int, len(names)),
		netAt:  make([]int32, len(names)+1),
	}
	// A chain design has about one net per instance.
	ids := make(map[string]int32, len(names)+1)
	var pinNames []string
	for i, in := range names {
		inst := top.Instances[in]
		m, _ := d.Lib.Macro(inst.Master)
		ix.size[i] = m.Size
		ix.degree[i] = len(inst.Conns)
		pinNames = pinNames[:0]
		for p := range inst.Conns {
			pinNames = append(pinNames, p)
		}
		slices.Sort(pinNames)
		first := len(ix.nets)
		for _, p := range pinNames {
			net := inst.Conns[p]
			id, ok := ids[net]
			if !ok {
				id = int32(len(ids))
				ids[net] = id
			}
			if !slices.Contains(ix.nets[first:], id) {
				ix.nets = append(ix.nets, id)
			}
			// A pin the macro lacks keeps a zero centre: d.HPWL fails on
			// it before the swap loop could read it.
			var centre geom.Point
			if mp, ok := m.Pin(p); ok {
				centre = mp.Center()
			}
			ix.pins = append(ix.pins, pin{net: id, inst: int32(i), centre: centre})
		}
		ix.netAt[i+1] = int32(len(ix.nets))
	}
	slices.SortStableFunc(ix.pins, func(a, b pin) int { return cmp.Compare(a.net, b.net) })
	ix.pinAt = make([]int32, len(ids)+1)
	for _, p := range ix.pins {
		ix.pinAt[p.net+1]++
	}
	for n := 1; n < len(ix.pinAt); n++ {
		ix.pinAt[n] += ix.pinAt[n-1]
	}
	return ix
}

// netsOf returns instance i's distinct nets.
func (ix *index) netsOf(i int32) []int32 {
	return ix.nets[ix.netAt[i]:ix.netAt[i+1]]
}

// pinsOf returns net n's pins.
func (ix *index) pinsOf(n int32) []pin {
	return ix.pins[ix.pinAt[n]:ix.pinAt[n+1]]
}

// bfsOrder orders instances by connectivity from the most-connected seed,
// so tightly coupled cells land near each other in the packing. Each
// instance's unvisited neighbours join the queue in name order, and the
// queue is the order itself.
func (ix *index) bfsOrder() []int32 {
	n := int32(len(ix.size))
	seed := int32(0)
	for i := range n {
		if ix.degree[i] > ix.degree[seed] || (ix.degree[i] == ix.degree[seed] && i < seed) {
			seed = i
		}
	}
	queued := make([]bool, n)
	queued[seed] = true
	order := append(make([]int32, 0, n), seed)
	var nbrs []int32
	for head := 0; head < len(order); head++ {
		nbrs = nbrs[:0]
		for _, net := range ix.netsOf(order[head]) {
			for _, p := range ix.pinsOf(net) {
				nbrs = append(nbrs, p.inst)
			}
		}
		slices.Sort(nbrs)
		for _, nb := range nbrs {
			if !queued[nb] {
				queued[nb] = true
				order = append(order, nb)
			}
		}
	}
	// Disconnected leftovers in name order.
	for i := range n {
		if !queued[i] {
			order = append(order, i)
		}
	}
	return order
}

// hpwlAround sums the half-perimeter wirelength of instance i's nets with
// the instances placed at pl.
func (ix *index) hpwlAround(pl []phys.Placement, i int32) int {
	total := 0
	for _, net := range ix.netsOf(i) {
		var box geom.Rect
		for k, p := range ix.pinsOf(net) {
			at := geom.Transform{Orient: pl[p.inst].Orient, Offset: pl[p.inst].Pos}.Apply(p.centre)
			if k == 0 {
				box = geom.Rect{Min: at, Max: at}
			} else {
				box = box.Union(geom.Rect{Min: at, Max: at})
			}
		}
		total += box.Dx() + box.Dy()
	}
	return total
}

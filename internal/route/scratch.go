package route

import "sync"

// Pooled scratch for the search phases. Every buffer is a flat slice
// indexed by (layer*H + y)*W + x and validity is tracked with epoch stamps:
// "clearing" a buffer is a single counter increment, not an O(cells) wipe.
// Buffers come from per-Grid sync.Pools, so steady-state routing — one bfs
// per pin, one recording view per replayed net — reuses the same storage
// instead of re-allocating maps per search (see DESIGN.md §5c).

// searchScratch holds one bfs invocation's visited/cost/frontier state.
type searchScratch struct {
	dist  []int32  // cost to reach a node; valid iff stamp[i] == epoch
	prev  []int32  // predecessor flat index (-1 = search root)
	stamp []uint32 // epoch stamp guarding dist/prev
	epoch uint32
	// buckets is the small-integer-cost frontier queue, indexed by cost.
	// Inner slices are reused across searches.
	buckets [][]int32
}

func newSearchScratch(n int) *searchScratch {
	return &searchScratch{
		dist:  make([]int32, n),
		prev:  make([]int32, n),
		stamp: make([]uint32, n),
	}
}

// reset invalidates all per-search state in O(buckets) time.
func (sc *searchScratch) reset() {
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: wipe once every 2^32 searches
		clear(sc.stamp)
		sc.epoch = 1
	}
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
}

// push appends a node to the cost-d frontier, growing the bucket index as
// needed.
func (sc *searchScratch) push(d int, i int32) {
	for d >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[d] = append(sc.buckets[d], i)
}

// visited reports whether a node has a valid distance this search.
func (sc *searchScratch) visited(i int32) bool { return sc.stamp[i] == sc.epoch }

// setDist records a node's distance and predecessor.
func (sc *searchScratch) setDist(i, d, from int32) {
	sc.dist[i] = d
	sc.prev[i] = from
	sc.stamp[i] = sc.epoch
}

// gridPools holds a grid's leased scratch and recording views. It is a
// separate allocation so equally-sized grids can share one warm pool: the
// incremental replay clones the fabric but inherits the source grid's
// pools, and every buffer inside is sized by the shared W×H. sync.Pool
// hands out exclusive ownership, so sharing is safe even when the source
// grid is still routing concurrently.
type gridPools struct {
	scratch sync.Pool
	view    sync.Pool
}

// getScratch leases a search scratch sized for this grid.
func (g *Grid) getScratch() *searchScratch {
	g.mSearches.Inc()
	if v := g.pools.scratch.Get(); v != nil {
		return v.(*searchScratch)
	}
	return newSearchScratch(2 * g.W * g.H)
}

func (g *Grid) putScratch(sc *searchScratch) { g.pools.scratch.Put(sc) }

// specView is a copy-on-write view of a Grid for a search whose reads must
// be known: writes land in a private epoch-stamped overlay, reads fall
// through to the underlying grid and are recorded. The incremental replay
// searches each dirty net on a view, checks the recorded read footprint
// for cells of nets that route later in canonical order, and then commits
// the paths onto the live grid (commitPaths). Views are pooled per Grid
// and reset by epoch bump, so a replay allocates nothing per net in steady
// state.
type specView struct {
	g       *Grid
	overlay []int32 // private writes; valid iff ostamp[i] == oepoch
	ostamp  []uint32
	oepoch  uint32
	reads   []int32  // fall-through read footprint, deduplicated
	rstamp  []uint32 // dedup stamp for reads; valid iff rstamp[i] == repoch
	repoch  uint32
}

// newSpecView leases a view from the grid's pool. The pool may be shared
// with an equally-sized clone (gridPools), so the leased view is re-aimed
// at this grid — its buffers are scratch, its g is not.
func newSpecView(g *Grid) *specView {
	if v := g.pools.view.Get(); v != nil {
		sv := v.(*specView)
		sv.g = g
		sv.resetView()
		return sv
	}
	n := 2 * g.W * g.H
	return &specView{
		g:       g,
		overlay: make([]int32, n),
		ostamp:  make([]uint32, n),
		oepoch:  1,
		rstamp:  make([]uint32, n),
		repoch:  1,
	}
}

func (g *Grid) putView(v *specView) { g.pools.view.Put(v) }

// resetView invalidates the overlay and read footprint by epoch bump.
func (v *specView) resetView() {
	v.oepoch++
	if v.oepoch == 0 {
		clear(v.ostamp)
		v.oepoch = 1
	}
	v.repoch++
	if v.repoch == 0 {
		clear(v.rstamp)
		v.repoch = 1
	}
	v.reads = v.reads[:0]
}

func (v *specView) owner(layer, x, y int) int32 {
	if x < 0 || y < 0 || x >= v.g.W || y >= v.g.H {
		return cellBlocked
	}
	i := (layer*v.g.H+y)*v.g.W + x
	if v.ostamp[i] == v.oepoch {
		return v.overlay[i]
	}
	if v.rstamp[i] != v.repoch {
		v.rstamp[i] = v.repoch
		v.reads = append(v.reads, int32(i))
	}
	return v.g.own[layer][y*v.g.W+x]
}

func (v *specView) set(layer, x, y int, id int32) {
	if x < 0 || y < 0 || x >= v.g.W || y >= v.g.H {
		return
	}
	i := (layer*v.g.H+y)*v.g.W + x
	v.overlay[i] = id
	v.ostamp[i] = v.oepoch
}

func (v *specView) isPin(x, y int) bool { return v.g.isPin(x, y) }
func (v *specView) size() (int, int)    { return v.g.W, v.g.H }
func (v *specView) plain() bool         { return v.g.plainBFS }
func (v *specView) base() *Grid         { return v.g }

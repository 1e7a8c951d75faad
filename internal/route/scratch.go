package route

import "cadinterop/internal/obs"

// Search scratch. Every buffer is a flat slice indexed by
// (layer*H + y)*W + x and validity is tracked with epoch stamps:
// "clearing" a buffer is a single counter increment, not an O(cells) wipe.
// Route allocates one scratch and every search of every pass reuses it —
// rip-up grids have the same size and searches run one at a time — so a
// search allocates nothing but the path it returns (see DESIGN.md §5c).

// searchScratch holds one bfs invocation's visited/cost/frontier state.
type searchScratch struct {
	dist  []int32  // cost to reach a node; valid iff stamp[i] == epoch
	prev  []int32  // predecessor flat index (-1 = search root)
	stamp []uint32 // epoch stamp guarding dist/prev
	epoch uint32
	// buckets is the small-integer-cost frontier queue, indexed by cost.
	// Inner slices are reused across searches.
	buckets [][]int32
	// searches counts the searches that pass the pin-cell check
	// (route.bfs.searches; nil when Options.Metrics is unset).
	searches *obs.Counter
}

// newSearchScratch sizes a scratch for n cells (both layers of a grid).
func newSearchScratch(n int, searches *obs.Counter) *searchScratch {
	return &searchScratch{
		dist:     make([]int32, n),
		prev:     make([]int32, n),
		stamp:    make([]uint32, n),
		searches: searches,
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

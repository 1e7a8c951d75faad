package route

import "cadinterop/internal/obs"

// Search scratch. Every buffer is a flat slice indexed like Grid.own and
// validity is tracked with epoch stamps: "clearing" a buffer is a single
// counter increment, not an O(cells) wipe. Route allocates one scratch and
// every search of every pass reuses it — every pass routes on a copy of
// the same fabric, and searches run one at a time. A search returns only
// the cell where it met the net, and routeNet walks prev back from there,
// so a search allocates nothing (see DESIGN.md §5c).

// searchScratch holds one bfs invocation's visited/cost/frontier state.
type searchScratch struct {
	// seen packs a cell's search epoch (high 32 bits) and its cost (low 32
	// bits) into one word, so one load answers both "reached in this
	// search?" and "at what cost?". Costs are never negative.
	seen []uint64
	// prev is a cell's predecessor slab index (-1 = search root, the
	// pin), valid while its seen stamp is the current epoch.
	prev []int32
	// epoch is the current search's stamp, already shifted into seen's
	// high half.
	epoch uint64
	// buckets is the frontier, a ring of cost buckets: cost d waits in
	// buckets[d%8]. A step costs at most 7 (a via, 3, into a cell beside a
	// pin, +4), so while the cost-d bucket drains every queued cost lies
	// in [d, d+7], and each bucket holds a single cost. The slices are
	// reused across searches.
	buckets [8][]int32
	// searches counts the searches run (route.bfs.searches; nil when
	// Options.Metrics is unset).
	searches *obs.Counter
}

// newSearchScratch sizes a scratch for n cells (len(Grid.own)).
func newSearchScratch(n int, searches *obs.Counter) *searchScratch {
	return &searchScratch{
		seen:     make([]uint64, n),
		prev:     make([]int32, n),
		searches: searches,
	}
}

// reset invalidates all per-search state in O(1) time.
func (sc *searchScratch) reset() {
	sc.epoch += 1 << 32
	if sc.epoch == 0 { // stamp wraparound: wipe once every 2^32 searches
		clear(sc.seen)
		sc.epoch = 1 << 32
	}
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
}

// push appends a cell to the cost-d frontier.
func (sc *searchScratch) push(d int, i int32) {
	b := &sc.buckets[d%len(sc.buckets)]
	*b = append(*b, i)
}

// reached reports whether a cell was reached this search at cost d or
// less. A stamp from an earlier search is below epoch, so the unsigned
// difference wraps past any cost.
func (sc *searchScratch) reached(i int32, d int) bool {
	return sc.seen[i]-sc.epoch <= uint64(d)
}

// settled reports whether a cell popped from the cost-d bucket still has
// cost d, that is, no cheaper push superseded the entry.
func (sc *searchScratch) settled(i int32, d int) bool {
	return sc.seen[i] == sc.epoch|uint64(d)
}

// setDist records a cell's cost and predecessor.
func (sc *searchScratch) setDist(i int32, d int, from int32) {
	sc.seen[i] = sc.epoch | uint64(d)
	sc.prev[i] = from
}

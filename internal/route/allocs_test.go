//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package route

import (
	"testing"

	"cadinterop/internal/geom"
)

// TestBFSAllocs: steady-state bfs must allocate only the returned path —
// all visited/cost/frontier state comes from the route's search scratch.
// The pre-interning implementation allocated hundreds of map entries per
// search; the bound here is exact so a scratch regression fails loudly.
func TestBFSAllocs(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 400, 400), 10)
	sc := newSearchScratch(len(g.own), nil)
	sig := g.tab.intern("n")
	claim(g, sig, node{0, 5, 5}, Rule{WidthTracks: 1})
	rule := Rule{WidthTracks: 1, SpacingTracks: 1}
	from := node{0, 35, 35}
	if _, err := bfs(g, sc, sig, from, rule); err != nil { // grow the frontier buckets
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := bfs(g, sc, sig, from, rule); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("bfs allocates %.1f objects per search, want <= 1 (path only)", avg)
	}
}

// TestInternGrowAllocs: a table grown to its final net count must intern
// without rehashing the map or reallocating the decode slab — the only
// allocations per name are the map entry and the four precomputed decode
// strings (three of them concatenations). The bound stays tight so a
// presize regression (growth reallocations back on the hot path) fails
// loudly.
func TestInternGrowAllocs(t *testing.T) {
	const nets = 512
	names := make([]string, nets)
	for i := range names {
		names[i] = "net" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
	}
	avg := testing.AllocsPerRun(20, func() {
		tab := newInternTable()
		tab.grow(nets)
		for _, n := range names {
			tab.intern(n)
		}
	})
	// Per name: one strs entry is pre-reserved (0 allocs), the three
	// prefixed decode forms allocate, and the map stores the entry without
	// rehash (~1 amortized). Fixed cost: table, slab, map. Anything above
	// ~4.5/name means growth reallocation crept back in.
	if perName := (avg - 8) / nets; perName > 4.5 {
		t.Errorf("grown intern table allocates %.2f objects per name (%.0f total), want <= 4.5", perName, avg)
	}
}

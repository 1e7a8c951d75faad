//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package route

import (
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/obs"
)

// TestBFSAllocs: steady-state bfs must allocate only the returned path —
// all visited/cost/frontier state comes from the route's search scratch.
// The pre-interning implementation allocated hundreds of map entries per
// search; the bound here is exact so a scratch regression fails loudly.
func TestBFSAllocs(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 400, 400), 10)
	g.tab = newInternTable([]string{"n"})
	sc := newSearchScratch(len(g.own), nil)
	sig, _ := g.tab.lookup("n")
	claim(g, sig, node{0, 5, 5}, Rule{WidthTracks: 1})
	rule := Rule{WidthTracks: 1, SpacingTracks: 1}
	from := node{0, 35, 35}
	if _, err := bfs(g, sc, sig, from, rule); err != nil { // grow the frontier ring's slices
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

// TestRouteAllocs: a whole Route builds its fabric (grid, intern table,
// pin flags) once and routes every pass on a copy of its cells, so each
// pass allocates only a slab, a result and its paths. The design,
// ripupCutCases[0], leaves nets unrouted on its first pass and runs six
// rip-up passes. Route allocates 417 objects on it; a fresh grid per pass
// with an intern table of precomputed marker strings allocated 1,087.
// The bound stays a little above 417, so rebuilding only the intern table
// per pass (452) or the whole fabric per pass (465) fails it.
func TestRouteAllocs(t *testing.T) {
	c := ripupCutCases[0]
	_, d, opts := quickDesign(t, c.seed, c.cells, c.crit, c.kos, c.plain)
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if _, err := Route(d, opts); err != nil {
		t.Fatal(err)
	}
	if passes := reg.Counter("route.ripup.passes").Value(); passes == 0 {
		t.Fatal("the design runs no rip-up pass")
	}
	opts.Metrics = nil
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Route(d, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 430 {
		t.Errorf("Route allocates %.0f objects, want <= 430", avg)
	}
}

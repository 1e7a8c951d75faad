//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package route

import (
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/obs"
)

// TestBFSAllocs: steady-state bfs must allocate nothing — all visited/
// cost/frontier state comes from the route's search scratch, and the path
// stays in its predecessor links. The pre-interning implementation
// allocated hundreds of map entries per search; the bound here is exact so
// a scratch regression fails loudly.
func TestBFSAllocs(t *testing.T) {
	g := NewGrid(geom.R(0, 0, 400, 400), 10)
	g.tab = newInternTable([]string{"n"})
	sc := newSearchScratch(len(g.own), nil)
	sig, _ := g.tab.lookup("n")
	claim(g, sig, g.index(0, 5, 5), 1)
	rule := Rule{WidthTracks: 1, SpacingTracks: 1}
	from := int32(g.index(0, 35, 35))
	if _, err := bfs(g, sc, sig, from, rule); err != nil { // grow the frontier ring's slices
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := bfs(g, sc, sig, from, rule); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("bfs allocates %.1f objects per search, want 0", avg)
	}
}

// TestRouteAllocs: a whole Route builds its fabric (grid, intern table,
// pin flags) once and routes every pass on a copy of its cells, so each
// pass allocates only a slab and a result, and a search nothing: the grid
// is the one record of a routed wire. The design, ripupCutCases[0], leaves
// nets unrouted on its first pass and runs six rip-up passes. Route
// allocates 219 objects on it. It allocated 417 while each search returned
// its path and each pass booked every wire step in a per-net map, and
// 1,087 with a fresh grid per pass. The bound stays a little above 219, so
// a slice per search path (256) or a map append per wire step (322) fails
// it.
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
	if avg > 230 {
		t.Errorf("Route allocates %.0f objects, want <= 230", avg)
	}
}

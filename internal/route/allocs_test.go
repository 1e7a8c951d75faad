//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package route

import (
	"runtime"
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
// pin flags) once, and a search allocates nothing: the grid is the one
// record of a routed wire. Each pass allocates a result and routes on a
// copy of the fabric's cells, and every pass after the second copies them
// into the slab of the attempt that lost last. The design,
// ripupCutCases[0], leaves nets unrouted on its first pass and runs six
// rip-up passes. Route allocates 209 objects on it. It allocated 219 with
// a new slab per pass, 417 while each search returned its path and each
// pass booked every wire step in a per-net map, and 1,087 with a fresh
// grid per pass. The bound stays a little above 209, so a slice per search
// path or a map append per wire step fails it. The bytes are counted in
// slabs (one int32 per cell of both padded layers): the fabric's, two
// attempts', the search scratch's three (seen is 8 bytes a cell, prev 4)
// and the pin flags' quarter come to 6.25, and Route allocates 8.0 in all.
// A new slab per pass took 13.6 and fails the bound of 10.
func TestRouteAllocs(t *testing.T) {
	c := ripupCutCases[0]
	_, d, opts := quickDesign(t, c.seed, c.cells, c.crit, c.kos, c.plain)
	reg := obs.NewRegistry()
	opts.Metrics = reg
	res, err := Route(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if passes := reg.Counter("route.ripup.passes").Value(); passes < 3 {
		t.Fatalf("the design runs %d rip-up passes, want >= 3", passes)
	}
	slab := float64(4 * len(res.grid.own))
	opts.Metrics = nil
	route := func() {
		if _, err := Route(d, opts); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, route)
	if avg > 215 {
		t.Errorf("Route allocates %.0f objects, want <= 215", avg)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	route()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		route()
	}
	runtime.ReadMemStats(&after)
	slabs := float64(after.TotalAlloc-before.TotalAlloc) / runs / slab
	t.Logf("%.0f objects and %.2f slabs of %.0f bytes per Route", avg, slabs, slab)
	if slabs > 10 {
		t.Errorf("Route allocates %.2f slabs, want <= 10", slabs)
	}
}

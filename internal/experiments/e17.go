package experiments

import (
	"fmt"
	"reflect"

	"cadinterop/internal/backplane"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/geom"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/route"
	"cadinterop/internal/workgen"
)

// E17Memoization measures the two repeat-work mechanisms of this PR:
// incremental rip-up/reroute (part 1) and content-addressed flow
// memoization (part 2). Part 1 nudges one instance of a sparse pre-placed
// design and reports how many nets the incremental router actually ripped
// up versus the design total, with a byte-equality verdict against the
// full reroute. Part 2 runs the same
// backplane fan-out twice through one cache and reports tool executions
// and hit rate per pass — the warm pass must execute zero tools while
// reproducing the cold results. Every number is a count or ratio — no
// timing — so the report is byte-identical at any worker count; ns/net
// lives in the benchmark suite (BenchmarkRouteIncremental,
// BenchmarkFlowCacheWarm).
func E17Memoization() (*Report, error) {
	r := &Report{ID: "E17", Title: "memoization: incremental reroute O(dirty) and warm-cache flow reruns"}

	r.addf("incremental reroute: one-pair nudge on a sparse k×k pair grid")
	r.addf("%4s %6s %9s %8s %9s %10s", "k", "nets", "rerouted", "kept", "fallback", "vs-full")
	for _, k := range []int{3, 4} {
		d, err := workgen.SparsePairs(k)
		if err != nil {
			return nil, err
		}
		opts := route.Options{Pitch: 10}
		prev, err := route.Route(d, opts)
		if err != nil {
			return nil, err
		}
		// Nudge the receiver of the center pair eastward: only that
		// pair's mid/out nets change.
		inst := fmt.Sprintf("p%02db", (k*k)/2)
		pl := d.Placements[inst]
		old, err := d.InstanceRect(inst)
		if err != nil {
			return nil, err
		}
		pl.Pos = pl.Pos.Add(geom.Pt(20, 0))
		d.Placements[inst] = pl
		nu, err := d.InstanceRect(inst)
		if err != nil {
			return nil, err
		}
		dirty := old.Union(nu)
		full, err := route.Route(d, opts)
		if err != nil {
			return nil, err
		}
		total := 3 * k * k
		inc, err := route.RouteIncremental(prev, d, dirty, opts)
		if err != nil {
			return nil, err
		}
		fallback := inc.IncrementalFallback
		if fallback == "" {
			fallback = "-"
		}
		verdict := "identical"
		if !routedEqual(full, inc) {
			verdict = "DIVERGED"
		}
		r.addf("%4d %6d %9d %7d%% %9s %10s",
			k, total, len(inc.ReroutedNets),
			100*(total-len(inc.ReroutedNets))/total, fallback, verdict)
	}

	r.addf("")
	r.addf("flow memoization: identical backplane fan-out, cold then warm")
	r.addf("%6s %11s %6s %8s %9s %10s", "pass", "tool_execs", "hits", "hitrate", "wirelen", "vs-cold")
	gen := func() (*phys.Design, *floorplan.Floorplan, error) {
		return workgen.PhysDesign(workgen.PhysOptions{
			Cells: 24, Seed: 17, CriticalNets: 3, Keepouts: 1})
	}
	cache := memo.New(nil)
	tools := backplane.AllTools()
	var coldRows []string
	for _, pass := range []string{"cold", "warm"} {
		rec := obs.New(nil)
		results, err := backplane.RunFlowsObserved(gen, tools, 5, false, rec,
			par.Workers(2), par.Cache(cache))
		if err != nil {
			return nil, err
		}
		rows := make([]string, len(results))
		for i, res := range results {
			rows[i] = fmt.Sprintf("%s hpwl=%d wirelen=%d vias=%d viol=%d failed=%d loss=%d",
				res.Tool, res.Place.FinalHPWL, res.Route.Wirelength, res.Route.Vias,
				len(res.Violations), len(res.Route.Failed), len(res.Loss.Items))
		}
		verdict := "(baseline)"
		if pass == "warm" {
			verdict = "identical"
			for i := range rows {
				if rows[i] != coldRows[i] {
					verdict = "DIVERGED"
				}
			}
		} else {
			coldRows = rows
		}
		execs := rec.Metrics().Counter("backplane.tool_execs").Value()
		hits := cache.Hits() // cumulative across passes
		if pass == "cold" && hits != 0 {
			verdict = "DIVERGED"
		}
		r.addf("%6s %11d %6d %7.0f%% %9d %10s",
			pass, execs, hits, 100*cache.HitRate(), results[0].Route.Wirelength, verdict)
	}
	return r, nil
}

// routedEqual compares the routed output proper — everything except the
// incremental path's observability fields (ReroutedNets,
// IncrementalFallback), which describe how a result was produced, not
// what was routed.
func routedEqual(a, b *route.Result) bool {
	return reflect.DeepEqual(a.Segments, b.Segments) &&
		a.Wirelength == b.Wirelength && a.Vias == b.Vias &&
		reflect.DeepEqual(a.Failed, b.Failed) &&
		reflect.DeepEqual(a.FailReasons, b.FailReasons) &&
		a.ShieldLen == b.ShieldLen
}

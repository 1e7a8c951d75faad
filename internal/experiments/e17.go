package experiments

import (
	"fmt"

	"cadinterop/internal/backplane"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/workgen"
)

// E17Memoization measures content-addressed flow memoization: it runs the
// same backplane fan-out twice through one cache and reports tool
// executions and hit rate per pass — the warm pass must execute zero
// tools while reproducing the cold results. Every number is a count or
// ratio — no timing — so the report is byte-identical at any worker
// count; warm-rerun time lives in the benchmark suite
// (BenchmarkFlowCacheWarm).
func E17Memoization() (*Report, error) {
	r := &Report{ID: "E17", Title: "memoization: warm-cache flow reruns"}

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
		results, err := backplane.RunFlowsObserved(gen, tools, 5, false, rec, cache,
			par.Workers(2))
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

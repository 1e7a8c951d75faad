package cadinterop

// One benchmark per constructed experiment (the paper has no tables or
// figures of its own — see DESIGN.md §4 and EXPERIMENTS.md). Each
// BenchmarkExpN drives the same code path as the corresponding
// internal/experiments harness entry; run with
//
//	go test -bench=. -benchmem ./...

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadinterop/internal/backplane"
	"cadinterop/internal/core"
	"cadinterop/internal/exchange"
	"cadinterop/internal/experiments"
	"cadinterop/internal/fault"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/hdl"
	"cadinterop/internal/memo"
	"cadinterop/internal/migrate"
	"cadinterop/internal/naming"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/serve"
	"cadinterop/internal/sim"
	"cadinterop/internal/synth"
	"cadinterop/internal/workflow"
	"cadinterop/internal/workgen"
)

// BenchmarkExp1ComponentReplacement measures the Figure 1 migration
// (rip-up/reroute component replacement) end to end, including
// verification, at several design sizes.
func BenchmarkExp1ComponentReplacement(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("insts=%d", n), func(b *testing.B) {
			w := workgen.Schematic(workgen.SchematicOptions{Instances: n, Pages: 1 + n/60, Seed: 42})
			opts := w.MigrateOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := migrate.Migrate(w.Design, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Verification) != 0 {
					b.Fatalf("verification diffs: %d", len(rep.Verification))
				}
			}
		})
	}
}

// BenchmarkExp2MigrationAblation measures the full migration with each
// translation rule ablated (the verification pass dominates).
func BenchmarkExp2MigrationAblation(b *testing.B) {
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 100, Pages: 3, Seed: 42})
	cases := map[string]func(*migrate.Options){
		"full":          func(*migrate.Options) {},
		"no-busxlate":   func(o *migrate.Options) { o.DisableBusXlate = true },
		"no-connectors": func(o *migrate.Options) { o.DisableConnectors = true },
	}
	for name, mod := range cases {
		b.Run(name, func(b *testing.B) {
			opts := w.MigrateOptions()
			mod(&opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := migrate.Migrate(w.Design, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp3SchedulerDivergence measures simulating the racy design
// under every legitimate event-ordering policy.
func BenchmarkExp3SchedulerDivergence(b *testing.B) {
	src := workgen.RacyDesign(4, false)
	d := mustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range sim.AllPolicies() {
			k, err := sim.Elaborate(d, "top", sim.Options{Policy: pol, DisableTrace: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Run(1000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExp4TimingCompat measures the timing-check sweep under both
// semantics.
func BenchmarkExp4TimingCompat(b *testing.B) {
	src := workgen.TimingDesign(3, []int{0, 1, 2, 3, 4})
	d := mustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pre := range []bool{false, true} {
			k, err := sim.Elaborate(d, "top", sim.Options{Pre16aPaths: pre, DisableTrace: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Run(100000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExp5CoSim measures a lockstep co-simulation run through the
// strict value bridge.
func BenchmarkExp5CoSim(b *testing.B) {
	srcA := `
module partA;
  reg drive;
  wire mid;
  assign mid = drive;
  initial begin
    drive = 0;
    #10 drive = 1;
    #30 drive = 0;
  end
endmodule`
	srcB := `
module partB;
  wire mid_in;
  wire out;
  assign out = mid_in;
endmodule`
	da := mustParse(srcA)
	db := mustParse(srcB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ka, err := sim.Elaborate(da, "partA", sim.Options{DisableTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		kb, err := sim.Elaborate(db, "partB", sim.Options{DisableTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := sim.NewCoSim(ka, kb, []sim.BoundarySignal{{A: "mid", B: "mid_in", AtoB: true}}, sim.Strict)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.Run(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp6SubsetIntersection measures subset checking a model corpus
// against all vendor profiles plus the intersection.
func BenchmarkExp6SubsetIntersection(b *testing.B) {
	var designs []*hdl.Design
	for i := 0; i < 20; i++ {
		src := workgen.CombModule("m", workgen.HDLOptions{
			Gates: 25, Inputs: 3, Seed: int64(i),
			UseMultiply: i%3 == 0, UsePartSelect: i%4 == 1, UseRelational: i%2 == 1})
		designs = append(designs, mustParse(src))
	}
	profiles := append(synth.AllVendors(), synth.Intersection(synth.AllVendors()...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			for _, p := range profiles {
				synth.CheckProfile(d, p)
			}
		}
	}
}

// BenchmarkExp7SensitivityCompletion measures synthesis with sensitivity
// completion plus gate-level re-simulation of the emitted netlist.
func BenchmarkExp7SensitivityCompletion(b *testing.B) {
	src := workgen.SensitivityDesign(6)
	d := mustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, _, err := synth.Synthesize(d, "style", synth.Options{})
		if err != nil {
			b.Fatal(err)
		}
		v, err := synth.EmitVerilog(nl, "style")
		if err != nil {
			b.Fatal(err)
		}
		gd, err := hdl.Parse(v)
		if err != nil {
			b.Fatal(err)
		}
		k, err := sim.Elaborate(gd, "style", sim.Options{DisableTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Run(10); err != nil {
			b.Fatal(err)
		}
		k.Kill()
	}
}

// BenchmarkExp8Naming measures alias detection, keyword renaming and
// hierarchy flattening over a name corpus.
func BenchmarkExp8Naming(b *testing.B) {
	corpus := workgen.NameCorpus(400, 17)
	paths := workgen.HierPaths(400, 5, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naming.FindAliases(corpus, 8)
		f := naming.NewFlattener("_", 0)
		for _, p := range paths {
			if _, err := f.Flatten(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExp9BackplaneLoss measures the full translate-place-route-audit
// flow per tool dialect.
func BenchmarkExp9BackplaneLoss(b *testing.B) {
	for _, tool := range backplane.AllTools() {
		b.Run(tool.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, fp, err := workgen.PhysDesign(workgen.PhysOptions{
					Cells: 32, Seed: 11, CriticalNets: 3, Keepouts: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := backplane.RunFlow(d, fp, tool, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExp10Workflow measures instantiating and running the
// hierarchical tapeout flow with a rework trigger.
func BenchmarkExp10Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10Workflow(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp11Methodology measures flow analysis of the ~200-task
// methodology under both task/tool mappings.
func BenchmarkExp11Methodology(b *testing.B) {
	g := core.CellBasedMethodology(12)
	cat := core.DefaultCatalog(12)
	single := core.SingleVendorMapping(g)
	multi := core.BestInClassMapping(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(g, cat, single)
		core.Analyze(g, cat, multi)
	}
}

// BenchmarkWorkflowScaling shows engine cost versus block count (ablation
// of the hierarchical expansion). Each block adds one task, so a cost per
// op that grows faster than the block count is scheduling overhead.
func BenchmarkWorkflowScaling(b *testing.B) {
	for _, blocks := range []int{4, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			names := make([]string, blocks)
			for i := range names {
				names[i] = fmt.Sprintf("b%02d", i)
			}
			sub := &workflow.Template{Name: "s", Steps: []*workflow.StepDef{
				{Name: "work", Action: workflow.FuncAction{Fn: func(*workflow.Ctx) int { return 0 }}},
			}}
			tpl := &workflow.Template{Name: "t", Steps: []*workflow.StepDef{
				{Name: "blocks", SubFlow: sub},
			}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in, err := workflow.Instantiate(tpl, nil, names)
				if err != nil {
					b.Fatal(err)
				}
				if err := in.Run("u"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMethodologyScaling shows analysis cost versus methodology size.
func BenchmarkMethodologyScaling(b *testing.B) {
	for _, blocks := range []int{6, 12, 24} {
		g := core.CellBasedMethodology(blocks)
		cat := core.DefaultCatalog(blocks)
		m := core.BestInClassMapping(g)
		b.Run(fmt.Sprintf("tasks=%d", g.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(g, cat, m)
			}
		})
	}
}

// BenchmarkRouteCongestionAblation compares the congestion-aware cost
// function against plain BFS — the router's central design choice. The
// interesting output is the failure count (reported as sub-benchmark
// names would hide it, so failures fail the bench).
func BenchmarkRouteCongestionAblation(b *testing.B) {
	for _, plain := range []bool{false, true} {
		name := "congestion-aware"
		if plain {
			name = "plain-bfs"
		}
		b.Run(name, func(b *testing.B) {
			var failed int
			for i := 0; i < b.N; i++ {
				d, _, err := workgen.PhysDesign(workgen.PhysOptions{Cells: 40, Seed: 13})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := place.Place(d, place.Options{Seed: 2}); err != nil {
					b.Fatal(err)
				}
				res, err := route.Route(d, route.Options{Pitch: 5, PlainBFS: plain})
				if err != nil {
					b.Fatal(err)
				}
				failed += len(res.Failed)
			}
			b.ReportMetric(float64(failed)/float64(b.N), "failed-nets/op")
		})
	}
}

// BenchmarkPlaceImprovementAblation compares packing-only placement with
// the swap-improvement pass, reporting the HPWL ratio.
func BenchmarkPlaceImprovementAblation(b *testing.B) {
	for _, passes := range []int{1, 8} {
		b.Run(fmt.Sprintf("swap-passes=%d", passes), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				d, _, err := workgen.PhysDesign(workgen.PhysOptions{Cells: 60, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				res, err := place.Place(d, place.Options{Seed: 4, SwapPasses: passes})
				if err != nil {
					b.Fatal(err)
				}
				ratio += float64(res.FinalHPWL) / float64(res.InitialHPWL)
			}
			b.ReportMetric(ratio/float64(b.N), "hpwl-ratio")
		})
	}
}

// BenchmarkExp12Interchange measures writing and reading the neutral
// interchange format under a restricted consumer.
func BenchmarkExp12Interchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12Interchange(20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp13FaultRobustness measures the fault-injected workflow
// sweep: six rate×policy runs of the hierarchical flow per iteration.
func BenchmarkExp13FaultRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E13FaultRobustness(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpAll measures the whole harness sequentially (the
// Workers(1) serial reference) and fanned out across GOMAXPROCS
// workers. The two variants produce byte-identical reports — see
// TestAllDeterministic — so the ratio is pure scheduling win.
func BenchmarkExpAll(b *testing.B) {
	for _, v := range []struct {
		name string
		opt  par.Option
	}{
		{"sequential", par.Workers(1)},
		{"parallel", par.Workers(0)},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.All(v.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackplaneFanout measures translating one floorplan into every
// tool dialect serially versus concurrently (each flow regenerates its
// own design, places and routes under the translated constraints).
func BenchmarkBackplaneFanout(b *testing.B) {
	gen := func() (*phys.Design, *floorplan.Floorplan, error) {
		return workgen.PhysDesign(workgen.PhysOptions{
			Cells: 32, Seed: 11, CriticalNets: 3, Keepouts: 1})
	}
	for _, v := range []struct {
		name string
		opt  par.Option
	}{
		{"sequential", par.Workers(1)},
		{"parallel", par.Workers(0)},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := backplane.RunFlows(gen, backplane.AllTools(), 5, v.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability layer against the same
// workload with it off. The disabled sub-benchmarks are the regression
// reference: instrumentation compiles to nil-receiver no-ops when no
// recorder or registry is attached, so "disabled" must track the
// pre-observability numbers (ISSUE 5 budget: ≤2% ns/op) while "observed"
// shows the real cost of live counters and spans.
func BenchmarkObsOverhead(b *testing.B) {
	d, fp, err := workgen.PhysDesign(workgen.PhysOptions{
		Cells: 48, Seed: 7, CriticalNets: 4, Keepouts: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := place.Place(d, place.Options{Seed: 5}); err != nil {
		b.Fatal(err)
	}
	rules := make(map[string]route.Rule, len(fp.NetRules))
	for _, r := range fp.NetRules {
		w := max(r.WidthTracks, 1)
		rules[r.Net] = route.Rule{WidthTracks: w, SpacingTracks: r.SpacingTracks, Shield: r.Shield}
	}
	routeOnce := func(b *testing.B, reg *obs.Registry) {
		if _, err := route.Route(d, route.Options{Pitch: 5, Rules: rules, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("route-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			routeOnce(b, nil)
		}
	})
	b.Run("route-observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			routeOnce(b, obs.NewRegistry())
		}
	})

	flowOnce := func(b *testing.B, observed bool) {
		steps := []*workflow.StepDef{
			{Name: "plan", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int {
				c.Data().Put("fp", "v1")
				return 0
			}}, Outputs: []string{"fp"}, Retry: workflow.RetryPolicy{MaxAttempts: 3, Backoff: 2}},
		}
		for i := 0; i < 12; i++ {
			steps = append(steps, &workflow.StepDef{
				Name:       fmt.Sprintf("blk%d", i),
				Action:     workflow.FuncAction{Fn: func(*workflow.Ctx) int { return 0 }},
				StartAfter: []string{"plan"},
				Retry:      workflow.RetryPolicy{MaxAttempts: 3, Backoff: 2, AttemptTimeout: 12},
			})
		}
		in, err := workflow.Instantiate(&workflow.Template{Name: "b", Steps: steps}, workflow.NewMemStore(), nil)
		if err != nil {
			b.Fatal(err)
		}
		in.Faults = fault.New(99, 0.3)
		if observed {
			rec := obs.New(in)
			root := rec.Start(0, "bench")
			in.Observe(rec, root)
			in.RunContinue("u")
			rec.End(root)
		} else {
			in.RunContinue("u")
		}
	}
	b.Run("workflow-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flowOnce(b, false)
		}
	})
	b.Run("workflow-observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flowOnce(b, true)
		}
	})
}

// BenchmarkExchangeScale measures interchange parse cost per net across
// three design sizes (10³–10⁵ nets) through the one reader's two entry
// points: "buffered" is ReadBytes over the in-memory file, "streaming" is
// ReadStream over a bytes.Reader. The sub-benchmark names predate the
// single reader and are kept so runs at earlier revisions stay
// comparable.
func BenchmarkExchangeScale(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		var buf bytes.Buffer
		if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: n, Seed: 61}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		ropts := exchange.ReadOptions{RequireTrailer: true}
		for _, v := range []struct {
			name string
			read func() error
		}{
			{"buffered", func() error {
				_, _, err := exchange.ReadBytes(data, ropts)
				return err
			}},
			{"streaming", func() error {
				_, _, err := exchange.ReadStream(bytes.NewReader(data), ropts)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("nets=%d/%s", n, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := v.read(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/net")
			})
		}
	}
}

// BenchmarkSchematicExtract measures connectivity extraction, which every
// migration runs twice to verify itself. One page of 50, 200 and 800
// instances shows how the cost grows with sheet density; "served" is the
// design /v1/migrate and schemig -gen build for gen 100 (1 + gen/60
// pages).
func BenchmarkSchematicExtract(b *testing.B) {
	cases := []struct {
		name string
		opts workgen.SchematicOptions
	}{
		{"page/insts=50", workgen.SchematicOptions{Instances: 50, Pages: 1, Seed: 42}},
		{"page/insts=200", workgen.SchematicOptions{Instances: 200, Pages: 1, Seed: 42}},
		{"page/insts=800", workgen.SchematicOptions{Instances: 800, Pages: 1, Seed: 42}},
		{"served/gen=100", workgen.SchematicOptions{Instances: 100, Pages: 1 + 100/60, Seed: 42}},
	}
	for _, c := range cases {
		d := workgen.Schematic(c.opts).Design
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schematic.Extract(d, schematic.VL.ExtractOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCDWrite measures writing the source design a gen-100
// migration keys its cache entry by: the cd.Write into sha256 that every
// /v1/migrate hit and miss runs.
func BenchmarkCDWrite(b *testing.B) {
	d := workgen.Schematic(workgen.SchematicOptions{Instances: 100, Pages: 1 + 100/60, Seed: 42}).Design
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cd.Write(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVetCacheHit measures a cached /v1/check of two 5,000-net
// interchange files, as warm-repeat sends it: each vet reads its file,
// hashes it for the key and answers from the cache.
func BenchmarkVetCacheHit(b *testing.B) {
	req := serve.CheckRequest{Files: checkFiles(b)}
	cache := memo.New(nil)
	if err := serve.Check(context.Background(), io.Discard, req, cache); err != nil {
		b.Fatal(err) // prime the cache outside the timed loop
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve.Check(context.Background(), io.Discard, req, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cache.HitRate(), "hit-rate")
}

// BenchmarkCheckUncached measures the /v1/check that check-parse sends:
// two 5,000-net interchange files vetted one after the other (jobs 1)
// with no cache, so the exchange reader does the work. "strict" vets two
// clean files. "lenient" vets a clean file beside a damaged copy of the
// other: its trailer line cut and three (net ...) records emptied, as the
// benchmark harness damages the files of check-parse's lenient requests.
func BenchmarkCheckUncached(b *testing.B) {
	files := checkFiles(b)
	data, err := os.ReadFile(files[1])
	if err != nil {
		b.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	lines = lines[:len(lines)-1]
	var nets []int
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "(net ") {
			nets = append(nets, i)
		}
	}
	for k := 1; k <= 3; k++ {
		lines[nets[k*len(nets)/4]] = "      (net)"
	}
	bad := filepath.Join(filepath.Dir(files[1]), "damaged.edf")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  serve.CheckRequest
	}{
		{"strict", serve.CheckRequest{Files: files, Jobs: 1}},
		{"lenient", serve.CheckRequest{Files: []string{files[0], bad}, Lenient: true, Jobs: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := serve.Check(context.Background(), io.Discard, c.req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkFiles writes two 5,000-net interchange files, seeds 1 and 2, the
// size check-parse and warm-repeat send, and returns their paths.
func checkFiles(b *testing.B) []string {
	dir := b.TempDir()
	var files []string
	for seed := int64(1); seed <= 2; seed++ {
		var buf bytes.Buffer
		if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: 5000, Seed: seed}); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("scale%d.edf", seed))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		files = append(files, path)
	}
	return files
}

// translateColdSeeds are the design seeds of the translate-cold benchmark
// workload's fixed set of 16 designs, in the order it derives them.
var translateColdSeeds = []int64{
	3815706971034938121, 1062978302177790369, 2095858246062234398, 1289205901780075,
	1874944728764045048, 1982008774604943220, 1875193922867876416, 1255029250774115709,
	1084444807977787697, 4385836646089963325, 4365024088915672551, 176468797965540606,
	4114430925720962309, 439151802237704826, 132580608568999955, 1590533054376842661,
}

// BenchmarkTranslateCold measures what translate-cold asks of the engine:
// one op translates its 16 designs at 32 cells, each through every tool
// on one worker with no cache, so every tool routes from scratch.
func BenchmarkTranslateCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, seed := range translateColdSeeds {
			req := serve.TranslateRequest{Cells: 32, Seed: seed, Jobs: 1}
			if err := serve.Translate(context.Background(), io.Discard, req, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRouteScale measures the router per net at three design sizes,
// over the multi-pin nets a probe run counts as routed or failed. The
// sub-benchmarks keep their "/serial" suffix so runs at earlier revisions
// stay comparable.
func BenchmarkRouteScale(b *testing.B) {
	for _, cells := range []int{48, 96, 192} {
		d, fp, err := workgen.PhysDesign(workgen.PhysOptions{
			Cells: cells, Seed: 61, CriticalNets: 6, Keepouts: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := place.Place(d, place.Options{Seed: 5}); err != nil {
			b.Fatal(err)
		}
		rules := make(map[string]route.Rule, len(fp.NetRules))
		for _, r := range fp.NetRules {
			rules[r.Net] = route.Rule{
				WidthTracks: max(r.WidthTracks, 1), SpacingTracks: r.SpacingTracks, Shield: r.Shield}
		}
		reg := obs.NewRegistry()
		if _, err := route.Route(d, route.Options{Pitch: 5, Rules: rules, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
		nets := reg.Counter("route.nets.routed").Value() + reg.Counter("route.nets.failed").Value()
		opts := route.Options{Pitch: 5, Rules: rules}
		b.Run(fmt.Sprintf("cells=%d/serial", cells), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := route.Route(d, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nets), "ns/net")
		})
	}
}

// BenchmarkWorkgenCorpus measures generating the E6 model corpus serially
// versus per-index in parallel.
func BenchmarkWorkgenCorpus(b *testing.B) {
	opt := func(i int) workgen.HDLOptions {
		return workgen.HDLOptions{
			Gates: 20 + i%30, Inputs: 3, Seed: int64(i),
			UseMultiply: i%3 == 0, UsePartSelect: i%4 == 1, UseRelational: i%2 == 1}
	}
	for _, v := range []struct {
		name string
		opt  par.Option
	}{
		{"sequential", par.Workers(1)},
		{"parallel", par.Workers(0)},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				workgen.CombModules("m", 64, opt, v.opt)
			}
		})
	}
}

// BenchmarkFlowCacheWarm measures a fully warm /v1/translate request —
// the rendered output served from the content-addressed cache, zero tool
// executions — against the uncached request it replaces. hit-rate is the
// cache's cumulative ratio, which converges to 1 as the warm iterations
// pile up.
func BenchmarkFlowCacheWarm(b *testing.B) {
	req := serve.TranslateRequest{Cells: 24, Seed: 17}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := serve.Translate(context.Background(), io.Discard, req, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := memo.New(nil)
		if err := serve.Translate(context.Background(), io.Discard, req, nil, cache); err != nil {
			b.Fatal(err) // prime the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := serve.Translate(context.Background(), io.Discard, req, nil, cache); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cache.HitRate(), "hit-rate")
	})
}

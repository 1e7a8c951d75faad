// Package experiments implements the constructed-experiment harness behind
// EXPERIMENTS.md. The paper contains no tables or figures beyond the
// Figure 1 illustration, so each experiment operationalizes one of its
// qualitative claims into a measured series; the benchmark suite at the
// repository root wraps these same functions.
package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"cadinterop/internal/backplane"
	"cadinterop/internal/core"
	"cadinterop/internal/exchange"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/hdl"
	"cadinterop/internal/migrate"
	"cadinterop/internal/naming"
	"cadinterop/internal/netlist"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/schematic"
	"cadinterop/internal/sim"
	"cadinterop/internal/synth"
	"cadinterop/internal/workflow"
	"cadinterop/internal/workgen"
)

// Report is one experiment's rendered result.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s\n", r.ID, r.Title, strings.Join(r.Lines, "\n"))
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// E1ComponentReplacement measures the Figure 1 operation at several design
// sizes: how many net segments rip-up/reroute touches and how graphically
// similar the result stays. Sizes are independent migrations, so they fan
// out across workers; rows land in size order either way. A cache riding
// the option list (par.Cache) memoizes each size's migration, so harness
// reruns with a persistent cache answer E1 without re-migrating.
func E1ComponentReplacement(sizes []int, opts ...par.Option) (*Report, error) {
	r := &Report{ID: "E1", Title: "component replacement (Figure 1): rip-up fraction and graphical similarity"}
	r.addf("%8s %10s %8s %8s %12s %8s", "insts", "segments", "ripped", "added", "similarity", "verify")
	cache := par.CacheOf(opts...)
	rows, err := par.Map(len(sizes), func(i int) (string, error) {
		n := sizes[i]
		w := workgen.Schematic(workgen.SchematicOptions{Instances: n, Pages: 1 + n/60, Seed: 42})
		mo := w.MigrateOptions()
		mo.Cache = cache
		_, rep, err := migrate.Migrate(w.Design, mo)
		if err != nil {
			return "", err
		}
		verdict := "clean"
		if len(rep.Verification) != 0 {
			verdict = fmt.Sprintf("%d diffs", len(rep.Verification))
		}
		return fmt.Sprintf("%8d %10d %8d %8d %11.1f%% %8s",
			n, rep.TotalSegments, rep.RippedSegments, rep.AddedSegments,
			rep.GeometricSimilarity*100, verdict), nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, rows...)
	return r, nil
}

// E2MigrationAblation disables each Section 2 translation rule in turn and
// counts the verification diffs and target-dialect violations that appear:
// every rule is load-bearing.
func E2MigrationAblation(instances int, opts ...par.Option) (*Report, error) {
	r := &Report{ID: "E2", Title: "migration rule ablation: verification diffs when one rule is dropped"}
	r.addf("%-18s %14s %16s", "ablated rule", "verify diffs", "CD violations")
	type ab struct {
		name  string
		apply func(*migrate.Options)
	}
	cases := []ab{
		{"none (full)", func(*migrate.Options) {}},
		{"bus-translation", func(o *migrate.Options) { o.DisableBusXlate = true }},
		{"connectors", func(o *migrate.Options) { o.DisableConnectors = true }},
		{"globals", func(o *migrate.Options) { o.DisableGlobals = true }},
		{"properties", func(o *migrate.Options) { o.DisableProps = true }},
		{"cosmetics", func(o *migrate.Options) { o.DisableCosmetics = true }},
	}
	// Each ablation migrates its own fresh workload, so the cases fan out.
	rows, err := par.Map(len(cases), func(i int) (string, error) {
		c := cases[i]
		w := workgen.Schematic(workgen.SchematicOptions{Instances: instances, Pages: 3, Seed: 42})
		mo := w.MigrateOptions()
		c.apply(&mo)
		out, rep, err := migrate.Migrate(w.Design, mo)
		if err != nil {
			return "", err
		}
		vs := schematic.CD.Check(out)
		return fmt.Sprintf("%-18s %14d %16d", c.name, len(rep.Verification), len(vs)), nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, rows...)
	return r, nil
}

// E3SchedulerDivergence runs racy and race-free designs under every event
// ordering policy and counts distinct outcomes and detected races.
func E3SchedulerDivergence(pairs int) (*Report, error) {
	r := &Report{ID: "E3", Title: "simultaneous-event ordering: distinct outcomes across legitimate schedulers"}
	r.addf("%-10s %10s %16s %12s", "model", "policies", "distinct results", "races found")
	for _, m := range []struct {
		name  string
		clean bool
	}{{"racy", false}, {"race-free", true}} {
		src := workgen.RacyDesign(pairs, m.clean)
		outcomes := map[string]bool{}
		races := 0
		for _, pol := range sim.AllPolicies() {
			d, err := hdl.Parse(src)
			if err != nil {
				return nil, err
			}
			k, err := sim.Elaborate(d, "top", sim.Options{Policy: pol, DisableTrace: true})
			if err != nil {
				return nil, err
			}
			if err := k.Run(1000); err != nil {
				return nil, err
			}
			var sig []string
			fv := k.FinalValues()
			for i := 0; i < pairs; i++ {
				sig = append(sig, fv[fmt.Sprintf("r%d", i)].String())
			}
			outcomes[strings.Join(sig, ",")] = true
			for _, race := range k.Races() {
				if race.Kind == sim.RaceReadWrite {
					races++
				}
			}
		}
		r.addf("%-10s %10d %16d %12d", m.name, len(sim.AllPolicies()), len(outcomes), races)
	}
	return r, nil
}

// E4TimingCompat sweeps data-to-clock separations through a $setup window
// under both timing-check semantics and reports the drift.
func E4TimingCompat(limit int) (*Report, error) {
	r := &Report{ID: "E4", Title: "timing-check backward compatibility (+pre_16a_path drift)"}
	r.addf("%8s %14s %14s %8s", "delta", "v1.6a flags", "pre-16a flags", "drift")
	drifts := 0
	for delta := 0; delta <= limit+1; delta++ {
		src := workgen.TimingDesign(limit, []int{delta})
		count := func(pre bool) (int, error) {
			d, err := hdl.Parse(src)
			if err != nil {
				return 0, err
			}
			k, err := sim.Elaborate(d, "top", sim.Options{Pre16aPaths: pre, DisableTrace: true})
			if err != nil {
				return 0, err
			}
			if err := k.Run(100000); err != nil {
				return 0, err
			}
			return len(k.Violations()), nil
		}
		nw, err := count(false)
		if err != nil {
			return nil, err
		}
		old, err := count(true)
		if err != nil {
			return nil, err
		}
		mark := ""
		if nw != old {
			mark = "DRIFT"
			drifts++
		}
		r.addf("%8d %14d %14d %8s", delta, nw, old, mark)
	}
	r.addf("separations whose verdict changes across simulator versions: %d", drifts)
	return r, nil
}

// E5CoSim splits a design across two kernels and measures value-set
// mapping distortion for the strict and lossy bridges.
func E5CoSim() (*Report, error) {
	r := &Report{ID: "E5", Title: "co-simulation value-set mapping loss (4-value vs 9-value bridge)"}
	r.addf("%-12s %10s %10s %18s", "mapping", "crossings", "distorted", "x-propagation")
	srcA := `
module partA;
  reg drive; // uninitialized: x until t=30
  wire mid;
  assign mid = drive;
  initial begin
    #30 drive = 1;
    #30 drive = 0;
    #30 $finish;
  end
endmodule`
	srcB := `
module partB;
  wire mid_in;
  wire out;
  assign out = mid_in;
endmodule`
	for _, m := range []sim.ValueMap{sim.Strict, sim.Optimistic} {
		da, err := hdl.Parse(srcA)
		if err != nil {
			return nil, err
		}
		db, err := hdl.Parse(srcB)
		if err != nil {
			return nil, err
		}
		ka, err := sim.Elaborate(da, "partA", sim.Options{DisableTrace: true})
		if err != nil {
			return nil, err
		}
		kb, err := sim.Elaborate(db, "partB", sim.Options{})
		if err != nil {
			return nil, err
		}
		cs, err := sim.NewCoSim(ka, kb, []sim.BoundarySignal{{A: "mid", B: "mid_in", AtoB: true}}, m)
		if err != nil {
			return nil, err
		}
		if err := cs.Run(200); err != nil {
			return nil, err
		}
		// Did x ever reach partB's output?
		sawX := false
		for _, c := range kb.Trace() {
			if c.Signal == "out" && c.New.HasXZ() {
				sawX = true
			}
		}
		xs := "x propagated (faithful)"
		if !sawX {
			xs = "x silently became 0"
		}
		r.addf("%-12s %10d %10d %18s", m.Name, cs.Crossings, cs.Distorted, xs)
	}
	return r, nil
}

// E6SubsetIntersection checks a generated model corpus against each vendor
// subset and the intersection: the paper's portability rule quantified.
// Corpus generation and profile checking both fan out per model; the
// acceptance tallies are folded in model order afterwards, so counts (and
// the non-portability check) match the sequential loop exactly.
func E6SubsetIntersection(models int, opts ...par.Option) (*Report, error) {
	r := &Report{ID: "E6", Title: "synthesizable-subset acceptance: per vendor vs intersection"}
	vendors := synth.AllVendors()
	inter := synth.Intersection(vendors...)
	profiles := append(append([]synth.Profile{}, vendors...), inter)
	srcs := workgen.CombModules("m", models, func(i int) workgen.HDLOptions {
		return workgen.HDLOptions{
			Gates: 20 + i%30, Inputs: 3, Seed: int64(i),
			UseMultiply:   i%3 == 0,
			UsePartSelect: i%4 == 1,
			UseTristate:   i%5 == 2,
			UseRelational: i%2 == 1,
		}
	}, opts...)
	type verdicts struct {
		vendorOK []bool
		interOK  bool
	}
	checked, err := par.Map(models, func(i int) (verdicts, error) {
		d, err := hdl.Parse(srcs[i])
		if err != nil {
			return verdicts{}, err
		}
		v := verdicts{vendorOK: make([]bool, len(vendors))}
		for vi, vend := range vendors {
			v.vendorOK[vi] = synth.CheckProfile(d, vend).Accepted
		}
		v.interOK = synth.CheckProfile(d, inter).Accepted
		return v, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	accept := map[string]int{}
	portable := 0
	interAccepted := 0
	for _, v := range checked {
		allOK := true
		for vi, vend := range vendors {
			if v.vendorOK[vi] {
				accept[vend.Name]++
			} else {
				allOK = false
			}
		}
		if v.interOK {
			interAccepted++
			accept[inter.Name]++
			if !allOK {
				return nil, fmt.Errorf("intersection accepted a non-portable model")
			}
		}
		if allOK {
			portable++
		}
	}
	r.addf("%-36s %10s %8s", "profile", "accepted", "rate")
	for _, p := range profiles {
		r.addf("%-36s %7d/%-3d %7.0f%%", p.Name, accept[p.Name], models,
			100*float64(accept[p.Name])/float64(models))
	}
	r.addf("models accepted by every vendor: %d/%d; intersection-accepted: %d (always portable)",
		portable, models, interAccepted)
	return r, nil
}

// E7SensitivityCompletion measures simulator-vs-synthesizer divergence on
// incomplete sensitivity lists: the hardware follows the missing signal,
// the simulation does not.
func E7SensitivityCompletion(blocks int) (*Report, error) {
	r := &Report{ID: "E7", Title: "sensitivity-list completion: simulation vs synthesized hardware"}
	src := workgen.SensitivityDesign(blocks)
	d, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	nl, rep, err := synth.Synthesize(d, "style", synth.Options{})
	if err != nil {
		return nil, err
	}
	v, err := synth.EmitVerilog(nl, "style")
	if err != nil {
		return nil, err
	}
	gd, err := hdl.Parse(v)
	if err != nil {
		return nil, err
	}

	// Drive each block's a=b=1, c=0, settle; then raise only c.
	mismatches := 0
	evalOuts := func(dd *hdl.Design) ([]sim.Value, error) {
		k, err := sim.Elaborate(dd, "style", sim.Options{DisableTrace: true})
		if err != nil {
			return nil, err
		}
		defer k.Kill()
		k.Bootstrap()
		for i := 0; i < blocks; i++ {
			k.Inject(fmt.Sprintf("a%d", i), sim.NewValue(1, 1))
			k.Inject(fmt.Sprintf("b%d", i), sim.NewValue(1, 1))
			k.Inject(fmt.Sprintf("c%d", i), sim.NewValue(1, 0))
		}
		if err := k.RunUntil(100); err != nil {
			return nil, err
		}
		k.AdvanceTo(100)
		for i := 0; i < blocks; i++ {
			k.Inject(fmt.Sprintf("c%d", i), sim.NewValue(1, 1))
		}
		if err := k.RunUntil(200); err != nil {
			return nil, err
		}
		var outs []sim.Value
		for i := 0; i < blocks; i++ {
			s, _ := k.Signal(fmt.Sprintf("o%d", i))
			outs = append(outs, s.Value())
		}
		return outs, nil
	}
	rtl, err := evalOuts(d)
	if err != nil {
		return nil, err
	}
	gates, err := evalOuts(gd)
	if err != nil {
		return nil, err
	}
	for i := range rtl {
		if !rtl[i].Eq(gates[i]) {
			mismatches++
		}
	}
	r.addf("always blocks with incomplete sensitivity: %d", blocks)
	r.addf("completions reported by synthesis:          %d", len(rep.Completions))
	r.addf("sim-vs-hardware mismatches after c-only change: %d/%d (RTL sim holds stale 0, gates follow c)",
		mismatches, blocks)
	return r, nil
}

// E8Naming quantifies Section 3.3: truncation aliasing, keyword
// collisions, rename fallout, flatten/back-map fidelity.
func E8Naming(names int) (*Report, error) {
	r := &Report{ID: "E8", Title: "identifier interoperability: aliasing, keywords, flattening"}
	corpus := workgen.NameCorpus(names, 17)
	for _, limit := range []int{8, 16, 32} {
		groups := naming.FindAliases(corpus, limit)
		aliased := 0
		for _, g := range groups {
			aliased += len(g.Names)
		}
		r.addf("significance %2d chars: %3d alias groups, %4d names affected", limit, len(groups), aliased)
	}
	kw := naming.KeywordCollisions(corpus)
	r.addf("VHDL keyword collisions: %d distinct (%v...)", len(kw), kw[:min(3, len(kw))])
	renames, err := naming.RenameForVHDL(dedupStrings(corpus))
	if err != nil {
		return nil, err
	}
	r.addf("identifiers renamed for VHDL legality: %d (scripts referencing them break)", len(renames))
	// Flattening round trip.
	paths := workgen.HierPaths(names, 5, 23)
	f := naming.NewFlattener("_", 0)
	ok := 0
	for _, p := range paths {
		flat, err := f.Flatten(p)
		if err != nil {
			return nil, err
		}
		back, found := f.BackMap(flat)
		if found && strings.Join(back, "/") == strings.Join(p, "/") {
			ok++
		}
	}
	r.addf("hierarchy flatten/back-map round trips: %d/%d exact", ok, len(paths))
	return r, nil
}

// E9BackplaneLoss drives one floorplan into each P&R tool dialect and
// reports constraint loss and resulting quality damage. The dialects run
// concurrently via backplane.RunFlows — each flow regenerates the design
// from the same options, so no placement state is shared — and results
// come back in tool order.
func E9BackplaneLoss(cells int, opts ...par.Option) (*Report, error) {
	r := &Report{ID: "E9", Title: "P&R backplane: constraint loss per tool dialect and QoR damage"}
	r.addf("%-8s %6s %10s %6s %6s %12s %12s", "tool", "lost", "degraded", "HPWL", "WL", "violations", "unrouted")
	gen := func() (*phys.Design, *floorplan.Floorplan, error) {
		return workgen.PhysDesign(workgen.PhysOptions{
			Cells: cells, Seed: 11, CriticalNets: 3, Keepouts: 1})
	}
	// Degrade, don't abort: a faulted dialect still gets a row (its error)
	// while the surviving tools report normally.
	results, _ := backplane.RunFlows(gen, backplane.AllTools(), 5, opts...)
	for _, res := range results {
		if res.Err != nil {
			r.addf("%-8s FAILED: %v", res.Tool, res.Err)
			continue
		}
		var dropped, degraded int
		for _, it := range res.Loss.Items {
			if it.Kind == backplane.LossDropped {
				dropped++
			} else {
				degraded++
			}
		}
		r.addf("%-8s %6d %10d %6d %6d %12d %12d",
			res.Tool, dropped, degraded, res.Place.FinalHPWL, res.Route.Wirelength,
			len(res.Violations), len(res.Route.Failed))
	}
	return r, nil
}

// E10Workflow runs a hierarchical tapeout flow, forces a rework trigger,
// and reports the collected metrics.
func E10Workflow(blocks int) (*Report, error) {
	r := &Report{ID: "E10", Title: "workflow engine: hierarchical tapeout flow with trigger-based rework"}
	blockNames := make([]string, blocks)
	for i := range blockNames {
		blockNames[i] = fmt.Sprintf("blk%02d", i)
	}
	sub := &workflow.Template{Name: "blockflow", Steps: []*workflow.StepDef{
		{Name: "rtl", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int {
			c.Data().Put("rtl:"+c.Block, "module "+c.Block)
			return 0
		}}, Outputs: []string{}},
		{Name: "synth", Action: workflow.FuncAction{Language: "tcl", Fn: func(c *workflow.Ctx) int {
			c.Data().Put("netlist:"+c.Block, "gates")
			return 0
		}}, StartAfter: []string{"rtl"}},
		{Name: "signoff", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int { return 0 }},
			StartAfter: []string{"synth"}},
	}}
	tpl := &workflow.Template{Name: "tapeout", Steps: []*workflow.StepDef{
		{Name: "plan", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int {
			c.Data().Put("floorplan", "v1")
			return 0
		}}, Outputs: []string{"floorplan"}},
		{Name: "blocks", SubFlow: sub, StartAfter: []string{"plan"}},
		{Name: "assemble", Action: workflow.FuncAction{Language: "perl", Fn: func(c *workflow.Ctx) int { return 0 }},
			StartAfter: []string{"blocks"},
			Inputs:     []workflow.MaturityCheck{{Item: "floorplan", Exists: true}}},
		{Name: "tapeout", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int { return 0 }},
			StartAfter: []string{"assemble"}, Permissions: []string{"manager"}},
	}}
	in, err := workflow.Instantiate(tpl, workflow.NewVersionedStore(), blockNames)
	if err != nil {
		return nil, err
	}
	if err := in.Run("engineer"); err != nil {
		return nil, err
	}
	// tapeout needs the manager.
	if err := in.Run("manager"); err != nil {
		return nil, err
	}
	if !in.Complete() {
		return nil, fmt.Errorf("flow incomplete: %v", in.Status())
	}
	r.addf("blocks=%d tasks=%d events=%d", blocks, len(in.Tasks), len(in.Events))
	// Trigger a floorplan change: assemble must be marked for rework.
	if err := in.Reset("plan", "engineer"); err != nil {
		return nil, err
	}
	if err := in.RunTask("plan", "engineer"); err != nil {
		return nil, err
	}
	r.addf("after floorplan change: notifications=%d (assemble flagged for rework)", len(in.Notifications))
	if err := in.Run("manager"); err != nil {
		return nil, err
	}
	m := workflow.CollectMetrics(in)
	r.addf("metrics: %s", m.Summary())
	r.addf("top bottlenecks: %v", m.Bottlenecks(3))
	return r, nil
}

// E11Methodology runs the Section 6 pipeline at the paper's ~200-task
// scale: specification, scenario pruning, two task/tool mappings, flow
// analysis, and the three optimization moves.
func E11Methodology(blocks int) (*Report, error) {
	r := &Report{ID: "E11", Title: "interoperability methodology at ~200-task scale"}
	g := core.CellBasedMethodology(blocks)
	if err := g.Validate(core.MethodologyPrimaries()); err != nil {
		return nil, err
	}
	r.addf("tasks=%d edges=%d infos=%d (paper: ~200 tasks for a cell-based methodology)",
		g.Len(), len(g.Edges()), len(g.Infos()))

	// Scenario pruning.
	var drops []string
	for _, id := range g.TaskIDs() {
		if strings.HasSuffix(id, ".dft") || strings.HasSuffix(id, ".gatesim") || id == "chip.power-analysis" {
			drops = append(drops, id)
		}
	}
	pruned, err := g.Prune(core.Scenario{Name: "prototype", TeamSize: 4, DropTasks: drops})
	if err != nil {
		return nil, err
	}
	r.addf("scenario 'prototype' prunes %d tasks; interaction reduction %.0f%%",
		g.Len()-pruned.Len(), 100*core.PruneFactor(g, pruned))

	cat := core.DefaultCatalog(blocks)
	results := map[string]*core.AnalysisResult{
		"single-vendor": core.Analyze(g, cat, core.SingleVendorMapping(g)),
		"best-in-class": core.Analyze(g, cat, core.BestInClassMapping(g)),
	}
	r.Lines = append(r.Lines, core.ReportTable(results)...)

	// Optimization moves on the best-in-class system.
	sys := &core.System{Graph: g, Tools: cat, Mapping: core.BestInClassMapping(g)}
	_, imp1, err := sys.AdoptConvention("", "namespace", "project-names")
	if err != nil {
		return nil, err
	}
	r.addf("optimize: %s", imp1)
	// Technology substitution: formal verification replaces all gate-level
	// simulation tasks.
	var gatesims []string
	var formalIns []string
	for _, id := range g.TaskIDs() {
		if strings.HasSuffix(id, ".gatesim") {
			gatesims = append(gatesims, id)
		}
	}
	for b := 0; b < blocks; b++ {
		formalIns = append(formalIns, fmt.Sprintf("rtl:b%02d", b), fmt.Sprintf("gate-netlist:b%02d", b))
	}
	formalTask := &core.Task{ID: "blk.formal", Desc: "formal equivalence for all blocks",
		Phase: core.Validation, Inputs: formalIns, Outputs: []string{"formal-report"}}
	var fports []core.Port
	for _, info := range formalIns {
		fports = append(fports, core.Port{Info: info, Model: core.ModelVendorYFile()})
	}
	formalTool := &core.Tool{Name: "formalY", Function: "equivalence checking",
		Inputs:    fports,
		Outputs:   []core.Port{{Info: "formal-report", Model: core.ModelText()}},
		ControlIn: []core.Interface{"cli", "tcl"}, ControlOut: []core.Interface{"exit-status"}}
	_, imp2, err := sys.SubstituteTechnology(formalTask, formalTool, gatesims)
	if err != nil {
		return nil, err
	}
	r.addf("optimize: %s", imp2)
	return r, nil
}

// entry pairs an experiment id with its default-parameter runner, so the
// harness can run a named subset and label a failed run by id.
type entry struct {
	id    string
	title string
	run   func(opts []par.Option) (*Report, error)
}

// registry is the harness at default parameters, in report order. Every
// entry is independent of the others (fresh workloads, no shared mutable
// state), which is what lets the harness fan them out across workers. The
// worker options thread down into the experiments that have internal
// fan-outs of their own (E1, E2, E6, E9), so par.Workers(1) makes the
// whole harness fully serial.
func registry() []entry {
	return []entry{
		{"E1", "component replacement", func(o []par.Option) (*Report, error) { return E1ComponentReplacement([]int{50, 100, 200}, o...) }},
		{"E2", "migration rule ablation", func(o []par.Option) (*Report, error) { return E2MigrationAblation(100, o...) }},
		{"E3", "scheduler divergence", func(o []par.Option) (*Report, error) { return E3SchedulerDivergence(4) }},
		{"E4", "timing-check compatibility", func(o []par.Option) (*Report, error) { return E4TimingCompat(3) }},
		{"E5", "co-simulation value mapping", func(o []par.Option) (*Report, error) { return E5CoSim() }},
		{"E6", "synthesizable-subset intersection", func(o []par.Option) (*Report, error) { return E6SubsetIntersection(60, o...) }},
		{"E7", "sensitivity-list completion", func(o []par.Option) (*Report, error) { return E7SensitivityCompletion(6) }},
		{"E8", "identifier interoperability", func(o []par.Option) (*Report, error) { return E8Naming(400) }},
		{"E9", "P&R backplane loss", func(o []par.Option) (*Report, error) { return E9BackplaneLoss(32, o...) }},
		{"E10", "workflow engine", func(o []par.Option) (*Report, error) { return E10Workflow(6) }},
		{"E11", "methodology at scale", func(o []par.Option) (*Report, error) { return E11Methodology(12) }},
		{"E12", "neutral interchange", func(o []par.Option) (*Report, error) { return E12Interchange(20) }},
		{"E13", "fault robustness", func(o []par.Option) (*Report, error) { return E13FaultRobustness(6) }},
		{"E14", "interchange corruption robustness", func(o []par.Option) (*Report, error) { return E14CorruptionRobustness() }},
		{"E15", "observability accounting", func(o []par.Option) (*Report, error) { return E15Observability(6) }},
		{"E16", "scale: streaming interchange window", func(o []par.Option) (*Report, error) { return E16Scale() }},
		{"E17", "memoization", func(o []par.Option) (*Report, error) { return E17Memoization() }},
		{"E18", "crash-exact journal resume", func(o []par.Option) (*Report, error) { return E18CrashResume() }},
		{"E19", "automated interoperability discovery", func(o []par.Option) (*Report, error) { return E19Discovery(4, o...) }},
	}
}

// All runs every experiment with default parameters, fanned out across a
// bounded worker pool; reports come back in experiment order regardless of
// completion order, so the output is byte-identical to a sequential run
// (pass par.Workers(1) for the serial reference).
func All(opts ...par.Option) ([]*Report, error) {
	return Run(nil, opts...)
}

// Run executes the named experiments (every registered one when ids is
// empty) with graceful degradation: an experiment that errors still
// yields a report entry in its slot — ID, a FAILED title, and the error —
// instead of losing the whole harness run. The returned error is the
// lowest-id failure (nil when all succeed), so callers keep the familiar
// abort-on-error option while the report slice stays complete. Unknown
// ids fail fast before anything runs.
func Run(ids []string, opts ...par.Option) ([]*Report, error) {
	return RunObserved(ids, nil, opts...)
}

// RunObserved is Run with observability attached. Each experiment traces
// into a private child recorder on its own step clock — experiments run
// concurrently, but each child is single-writer — and the children merge
// under one "experiments" span in registry order after the fan-out, so
// the trace is byte-identical at every worker count. The harness worker
// pool records its queue-depth and occupancy metrics into rec's
// registry. A nil rec is Run exactly.
func RunObserved(ids []string, rec *obs.Recorder, opts ...par.Option) ([]*Report, error) {
	all := registry()
	selected := all
	if len(ids) > 0 {
		byID := make(map[string]entry, len(all))
		for _, e := range all {
			byID[e.id] = e
		}
		selected = selected[:0:0]
		for _, id := range ids {
			e, ok := byID[strings.ToUpper(id)]
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (have E1..E%d)", id, len(all))
			}
			selected = append(selected, e)
		}
	}
	var children []*obs.Recorder
	if rec != nil {
		children = make([]*obs.Recorder, len(selected))
		for i := range children {
			children[i] = obs.New(nil)
		}
		opts = append(opts, par.Metrics(rec.Metrics()))
	}
	reports, errs := par.MapAll(len(selected), func(i int) (*Report, error) {
		var crec *obs.Recorder
		if children != nil {
			crec = children[i]
		}
		sp := crec.Start(0, selected[i].id)
		rep, err := selected[i].run(opts)
		if err != nil {
			crec.Attr(sp, "status", "failed")
			crec.End(sp)
			return &Report{
				ID:    selected[i].id,
				Title: fmt.Sprintf("FAILED: %s", selected[i].title),
				Lines: []string{fmt.Sprintf("error: %v", err)},
			}, err
		}
		crec.AttrInt(sp, "lines", int64(len(rep.Lines)))
		crec.End(sp)
		return rep, nil
	}, opts...)
	if rec != nil {
		root := rec.Start(0, "experiments")
		rec.AttrInt(root, "selected", int64(len(selected)))
		for _, c := range children {
			rec.Merge(root, c)
		}
		rec.End(root)
	}
	return reports, par.FirstError(errs)
}

func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// E12Interchange measures the neutral interchange format: a synthesized
// netlist shipped to consumers with progressively harsher name
// restrictions, counting externalization renames and verifying lossless
// restoration — the standards answer to §1's "the limiting factor [is] the
// format of the data itself".
func E12Interchange(gates int) (*Report, error) {
	r := &Report{ID: "E12", Title: "neutral interchange: rename burden vs consumer name limits"}
	src := workgen.CombModule("unit", workgen.HDLOptions{Gates: gates, Inputs: 3, Seed: 4})
	d, err := hdl.Parse(src)
	if err != nil {
		return nil, err
	}
	nl, _, err := synth.Synthesize(d, "unit", synth.Options{})
	if err != nil {
		return nil, err
	}
	r.addf("%12s %10s %12s %10s", "name limit", "renames", "file bytes", "restored")
	for _, limit := range []int{0, 16, 12, 8} {
		var buf bytes.Buffer
		if err := exchange.Write(&buf, nl, exchange.WriteOptions{NameLimit: limit, VHDLSafe: limit > 0}); err != nil {
			return nil, err
		}
		renames := strings.Count(buf.String(), "(rename")
		back, err := exchange.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		verdict := "lossless"
		if diffs := netlist.Compare(nl, back, netlist.CompareOptions{}); len(diffs) != 0 {
			verdict = fmt.Sprintf("%d diffs", len(diffs))
		}
		lim := "unlimited"
		if limit > 0 {
			lim = fmt.Sprintf("%d chars", limit)
		}
		r.addf("%12s %10d %12d %10s", lim, renames, buf.Len(), verdict)
	}
	return r, nil
}

// Command interop runs the Section 6 methodology end to end: generate (or
// size) the ~200-task cell-based methodology, prune it with a scenario,
// analyze the task/tool mappings for the five classic interoperability
// problems, and apply the optimization moves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cadinterop/internal/core"
	"cadinterop/internal/memo"
	"cadinterop/internal/serve"
	"cadinterop/internal/workflow"
)

func main() {
	var (
		blocks   = flag.Int("blocks", 12, "design blocks in the methodology (12 ≈ the paper's ~200 tasks)")
		scenario = flag.String("scenario", "", "apply a scenario: prototype|asic")
		optimize = flag.Bool("optimize", false, "apply the three optimization moves and report deltas")
		problems = flag.Int("problems", 0, "print the first N problems of the best-in-class analysis")
		flow     = flag.Bool("flow", false, "deploy the methodology as a workflow and run it to completion")
		check    = flag.Bool("check", false, "vet the interchange files given as arguments (reader by extension) and exit")
		strict   = flag.Bool("strict", true, "with -check: abort a file on its first error-severity diagnostic")
		lenient  = flag.Bool("lenient", false, "with -check: quarantine malformed records and keep parsing")
		jobs     = flag.Int("j", 0, "with -check: worker count vetting files concurrently (0 = GOMAXPROCS, 1 = sequential); output is identical at any setting")
		useCache = flag.Bool("cache", false, "with -check: memoize each file's verdict by content address (in memory)")
		cacheDir = flag.String("cache-dir", "", "with -check: persist the verdict cache under this directory so repeat vets of unchanged files skip re-parsing (implies -cache)")
	)
	flag.Parse()
	if *check {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "interop: -check needs file arguments")
			os.Exit(2)
		}
		// The vet itself is serve.Check — the entry point the interop
		// daemon exposes as /v1/check — so daemon responses and this
		// command's stdout are byte-identical by construction.
		var cache *memo.Cache
		if *cacheDir != "" {
			var err error
			if cache, err = memo.NewDir(*cacheDir, nil); err != nil {
				fmt.Fprintln(os.Stderr, "interop:", err)
				os.Exit(1)
			}
		} else if *useCache {
			cache = memo.New(nil)
		}
		req := serve.CheckRequest{Files: flag.Args(), Lenient: *lenient || !*strict, Jobs: *jobs}
		if err := serve.Check(context.Background(), os.Stdout, req, cache); err != nil {
			fmt.Fprintln(os.Stderr, "interop:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*blocks, *scenario, *optimize, *problems, *flow); err != nil {
		fmt.Fprintln(os.Stderr, "interop:", err)
		os.Exit(1)
	}
}

func run(blocks int, scenario string, optimize bool, printProblems int, flow bool) error {
	g := core.CellBasedMethodology(blocks)
	if err := g.Validate(core.MethodologyPrimaries()); err != nil {
		return err
	}
	fmt.Printf("methodology: %d tasks, %d edges, %d information items\n",
		g.Len(), len(g.Edges()), len(g.Infos()))
	fmt.Printf("primary inputs: %v\n", g.PrimaryInputs())
	fmt.Printf("deliverables: %v\n", g.FinalOutputs())

	if scenario != "" {
		var sc core.Scenario
		switch scenario {
		case "prototype":
			var drops []string
			for _, id := range g.TaskIDs() {
				if strings.HasSuffix(id, ".dft") || strings.HasSuffix(id, ".gatesim") || id == "chip.power-analysis" {
					drops = append(drops, id)
				}
			}
			sc = core.Scenario{Name: "prototype", TeamSize: 4, Experience: "senior", DropTasks: drops}
		case "asic":
			sc = core.Scenario{Name: "asic", TeamSize: 20, Experience: "mixed"}
		default:
			return fmt.Errorf("unknown scenario %q", scenario)
		}
		pruned, err := g.Prune(sc)
		if err != nil {
			return err
		}
		fmt.Printf("scenario %q: %d -> %d tasks, interaction reduction %.0f%%\n",
			sc.Name, g.Len(), pruned.Len(), 100*core.PruneFactor(g, pruned))
		g = pruned
	}

	cat := core.DefaultCatalog(blocks)
	single := core.SingleVendorMapping(g)
	multi := core.BestInClassMapping(g)
	results := map[string]*core.AnalysisResult{
		"single-vendor": core.Analyze(g, cat, single),
		"best-in-class": core.Analyze(g, cat, multi),
	}
	for _, row := range core.ReportTable(results) {
		fmt.Println(row)
	}
	if printProblems > 0 {
		ps := results["best-in-class"].Problems
		sort.Slice(ps, func(i, j int) bool { return ps[i].Cost > ps[j].Cost })
		for i, p := range ps {
			if i >= printProblems {
				break
			}
			fmt.Println("  ", p)
		}
	}

	if flow {
		tpl, err := core.ToWorkflow(g, multi, nil)
		if err != nil {
			return err
		}
		in, err := workflow.Instantiate(tpl, workflow.NewVersionedStore(), nil)
		if err != nil {
			return err
		}
		if err := in.Run("engineer"); err != nil {
			return err
		}
		fmt.Printf("deployed as workflow: complete=%v, %s\n",
			in.Complete(), workflow.CollectMetrics(in).Summary())
	}

	if optimize {
		sys := &core.System{Graph: g, Tools: cat, Mapping: multi}
		ns, imp, err := sys.AdoptConvention("", "namespace", "project-names")
		if err != nil {
			return err
		}
		fmt.Println("optimize:", imp)
		var gatesims []string
		for _, id := range g.TaskIDs() {
			if strings.HasSuffix(id, ".gatesim") {
				gatesims = append(gatesims, id)
			}
		}
		if len(gatesims) > 0 {
			var ins []string
			for b := 0; b < blocks; b++ {
				ins = append(ins, fmt.Sprintf("rtl:b%02d", b), fmt.Sprintf("gate-netlist:b%02d", b))
			}
			var ports []core.Port
			for _, info := range ins {
				ports = append(ports, core.Port{Info: info, Model: core.ModelVendorYFile()})
			}
			task := &core.Task{ID: "blk.formal", Desc: "formal equivalence replaces gate simulation",
				Phase: core.Validation, Inputs: ins, Outputs: []string{"formal-report"}}
			tool := &core.Tool{Name: "formalY", Function: "equivalence checking",
				Inputs:    ports,
				Outputs:   []core.Port{{Info: "formal-report", Model: core.ModelText()}},
				ControlIn: []core.Interface{"cli", "tcl"}, ControlOut: []core.Interface{"exit-status"}}
			_, imp2, err := ns.SubstituteTechnology(task, tool, gatesims)
			if err != nil {
				return err
			}
			fmt.Println("optimize:", imp2)
		}
	}
	return nil
}

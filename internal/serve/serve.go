// Package serve is the shared service layer between the one-shot CLIs
// (bplane, flowrun, schemig, interop -check) and the long-lived interop
// daemon (cmd/interopd). Each engine — backplane translation, interchange
// vetting, schematic migration, workflow execution — gets one request
// struct and one entry point that renders the exact bytes the CLI prints
// to stdout, parameterized over an io.Writer. The CLIs call these entry
// points with os.Stdout; the daemon calls them with a response buffer.
// That single-entry-point discipline is what makes the daemon's
// byte-identity bar (DESIGN.md §5i) enforceable: a daemon response and
// the corresponding CLI invocation run the same code on the same inputs,
// so an equivalence test can diff them verbatim.
//
// Cancellation policy: every entry point takes a context and honors it
// at stage boundaries — before the engine starts and between
// run-to-completion stages — never mid-stage. Engines mutate only
// request-private state plus the shared memo cache, and the cache admits
// only completed results, so abandoning a request at a boundary can
// never publish partial state.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cadinterop/internal/backplane"
	"cadinterop/internal/diag"
	"cadinterop/internal/fault"
	"cadinterop/internal/filecheck"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/journal"
	"cadinterop/internal/memo"
	"cadinterop/internal/migrate"
	"cadinterop/internal/netlist"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
	"cadinterop/internal/workflow"
	"cadinterop/internal/workgen"
)

// --- /v1/translate: the Section 4 P&R backplane (cmd/bplane) -----------

// TranslateRequest selects one backplane translation run: a generated
// design pushed through every (or one) tool dialect with placement,
// routing and the constraint-loss audit. Zero values mean the CLI
// defaults (see WithDefaults); the rendered output is cmd/bplane's
// stdout byte for byte.
type TranslateRequest struct {
	Cells     int    `json:"cells,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Tool      string `json:"tool,omitempty"`
	Loss      bool   `json:"loss,omitempty"`
	Jobs      int    `json:"jobs,omitempty"`
	RoundTrip bool   `json:"roundtrip,omitempty"`
	// DeadlineMS bounds this request's wall-clock service time (0 = the
	// server's deadline); it may shorten the server's deadline but never
	// lengthen it. Only the daemon reads it; the CLIs have no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// WithDefaults fills zero fields with the cmd/bplane flag defaults so a
// minimal JSON request means the same run as a bare CLI invocation.
func (r TranslateRequest) WithDefaults() TranslateRequest {
	if r.Cells == 0 {
		r.Cells = 24
	}
	if r.Seed == 0 {
		r.Seed = 11
	}
	return r
}

func (r TranslateRequest) deadlineMS() int64 { return r.DeadlineMS }

// Translate runs the backplane flow fan-out and renders the result table
// (and with req.Loss the per-item loss report) to w — exactly what
// cmd/bplane prints. rec (nil = no tracing) receives the engine's
// per-tool spans; cache (nil = no memoization) serves and stores
// per-tool flow results. With req.RoundTrip the per-tool handoff gate
// failures are rendered into the table and the first failure is also
// returned, matching the CLI's non-zero exit.
func Translate(ctx context.Context, w io.Writer, req TranslateRequest, rec *obs.Recorder, cache *memo.Cache) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tools := backplane.AllTools()
	if req.Tool != "" {
		var sel []backplane.ToolDialect
		for _, t := range tools {
			if t.Name == req.Tool {
				sel = append(sel, t)
			}
		}
		if len(sel) == 0 {
			return fmt.Errorf("unknown tool %q", req.Tool)
		}
		tools = sel
	}
	gen := func() (*phys.Design, *floorplan.Floorplan, error) {
		return workgen.PhysDesign(workgen.PhysOptions{
			Cells: req.Cells, Seed: req.Seed, CriticalNets: 3, Keepouts: 1})
	}
	// Each tool's flow traces into a private child recorder on its own
	// virtual clock; the children merge in tool order, so the trace is
	// byte-identical at every worker count.
	results, err := backplane.RunFlowsObserved(gen, tools, 5, req.RoundTrip, rec, cache,
		par.Workers(req.Jobs))
	if err != nil && !req.RoundTrip {
		return err
	}
	fmt.Fprintf(w, "%-8s %6s %10s %8s %8s %6s %12s %10s\n",
		"tool", "lost", "degraded", "HPWL", "wirelen", "vias", "violations", "unrouted")
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(w, "%-8s FAILED: %v\n", res.Tool, res.Err)
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
		fmt.Fprintf(w, "%-8s %6d %10d %8d %8d %6d %12d %10d\n",
			res.Tool, dropped, degraded, res.Place.FinalHPWL,
			res.Route.Wirelength, res.Route.Vias, len(res.Violations), len(res.Route.Failed))
		if req.Loss {
			for _, it := range res.Loss.Items {
				fmt.Fprintln(w, "   ", it)
			}
			for _, v := range res.Violations {
				fmt.Fprintln(w, "    AUDIT:", v)
			}
		}
	}
	if merged := backplane.MergeLoss(results); len(results) > 1 && len(merged) > 0 {
		fmt.Fprintf(w, "\nconstraint loss by class (per tool: ")
		for i, res := range results {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, res.Tool)
		}
		fmt.Fprintln(w, ")")
		for _, cl := range merged {
			fmt.Fprintf(w, "  %-14s dropped=%-3d degraded=%-3d per-tool=%v\n",
				cl.Class, cl.Dropped, cl.Degraded, cl.PerTool)
		}
	}
	// With RoundTrip a gate failure was rendered per tool above; still
	// return it so callers exit (or respond) non-zero.
	return err
}

// --- /v1/check: interchange vetting (interop -check / bplane -check) ---

// CheckRequest vets interchange files (reader by extension) under the
// strict or lenient policy. Files name server-side paths; the rendered
// output is filecheck's per-file diagnostic blocks in path order, byte
// for byte what `interop -check` prints.
type CheckRequest struct {
	Files      []string `json:"files"`
	Lenient    bool     `json:"lenient,omitempty"`
	Jobs       int      `json:"jobs,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

func (r CheckRequest) deadlineMS() int64 { return r.DeadlineMS }

// Check vets req.Files and renders each file's diagnostics block and
// verdict line to w. The returned error is non-nil exactly when the CLI
// would exit non-zero: any file whose parse aborted.
func Check(ctx context.Context, w io.Writer, req CheckRequest, cache *memo.Cache) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(req.Files) == 0 {
		return errors.New("check needs file arguments")
	}
	mode := diag.Strict
	if req.Lenient {
		mode = diag.Lenient
	}
	opts := filecheck.Options{Mode: mode, Jobs: req.Jobs, Cache: cache}
	return filecheck.FilesOpts(w, req.Files, opts)
}

// --- /v1/migrate: the Section 2 schematic migration (cmd/schemig) ------

// MigrateRequest migrates a schematic database from the vl dialect to
// the cd dialect. With Gen > 0 the tool generates an N-instance
// demonstration workload; otherwise In/Lib/Map name local files (vl
// design, cd target libraries, symbol/property map). Those three are
// CLI-only: the daemon refuses them, because each names a server path
// and a map's CALLBACK lines name more and run them as a/L. The report
// renders to the report writer and the migrated cd design to the design
// writer — stdout twice over in the CLI.
type MigrateRequest struct {
	Gen        int    `json:"gen,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	In         string `json:"in,omitempty"`
	Lib        string `json:"lib,omitempty"`
	Map        string `json:"map,omitempty"`
	Verbose    bool   `json:"verbose,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// WithDefaults fills zero fields with the cmd/schemig flag defaults.
func (r MigrateRequest) WithDefaults() MigrateRequest {
	if r.Seed == 0 {
		r.Seed = 42
	}
	return r
}

func (r MigrateRequest) deadlineMS() int64 { return r.DeadlineMS }

// Migrate runs one schematic migration, rendering the report to reportW
// and the migrated design to designW (the CLI points both at stdout
// unless -out redirects the design). cache (nil = off) stores the
// rendered bytes of clean migrations by content address, so a hit
// writes them again and runs and parses nothing. A migration whose
// independent verification finds diffs renders its full report and then
// returns the diff count as an error, matching the CLI's non-zero exit;
// it is never stored.
func Migrate(ctx context.Context, reportW, designW io.Writer, req MigrateRequest, cache *memo.Cache) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var (
		design *schematic.Design
		opts   migrate.Options
	)
	if req.Gen > 0 {
		w := workgen.Schematic(workgen.SchematicOptions{Instances: req.Gen, Pages: 1 + req.Gen/60, Seed: req.Seed})
		design = w.Design
		opts = w.MigrateOptions()
	} else {
		if req.In == "" || req.Lib == "" || req.Map == "" {
			return fmt.Errorf("need -in, -lib and -map (or -gen N)")
		}
		f, err := os.Open(req.In)
		if err != nil {
			return err
		}
		defer f.Close()
		design, err = vl.Read(f)
		if err != nil {
			return err
		}
		lf, err := os.Open(req.Lib)
		if err != nil {
			return err
		}
		defer lf.Close()
		libDesign, err := cd.Read(lf, cd.ReadOptions{})
		if err != nil {
			return err
		}
		opts = migrate.Options{From: schematic.VL, To: schematic.CD}
		for _, lib := range libDesign.Libraries {
			opts.TargetLibs = append(opts.TargetLibs, lib)
		}
		if err := parseMapFile(req.Map, &opts); err != nil {
			return err
		}
	}
	var key memo.Key
	if cache != nil {
		key = migrateKey(design, opts)
		if entry, hit := cache.Get(key); hit {
			if ok, err := writeMigration(reportW, designW, entry); ok {
				return err
			}
		}
	}
	out, rep, err := migrate.Migrate(design, opts)
	if err != nil {
		return err
	}
	entry := renderMigration(design.Name, out, rep, req.Verbose)
	if _, err := writeMigration(reportW, designW, entry); err != nil {
		return err
	}
	if len(rep.Verification) != 0 {
		return fmt.Errorf("verification found %d diffs", len(rep.Verification))
	}
	cache.Put(key, entry)
	return nil
}

// migrateVersion names a cached migration: the memo key's tool and the
// entry's header. Bump it whenever what Migrate prints changes, so an
// entry stored by an older build is a miss, never a stale answer.
const migrateVersion = "migrate/v2"

// migrateKey is the content address of one migration: the sha256 of the
// source's cd rendering, migrateVersion, and the options' fingerprint.
// req.Verbose stays out of the key: it adds only the verification diff
// lines, and a migration with diffs is never stored.
func migrateKey(src *schematic.Design, opts migrate.Options) memo.Key {
	h := sha256.New()
	_ = cd.Write(h, src) // a hash never fails a write
	return memo.Key{Content: hex.EncodeToString(h.Sum(nil)), Tool: migrateVersion, Options: opts.Fingerprint()}
}

// renderMigration renders a migration as Migrate prints it, in the form
// the cache stores: a header line "migrate/v2 <report length>", then the
// report, then the design in cd form.
func renderMigration(name string, out *schematic.Design, rep *migrate.Report, verbose bool) []byte {
	var report bytes.Buffer
	fmt.Fprintf(&report, "migrated %q: %d instances replaced, %d pins rerouted (%d ripped, %d added segments)\n",
		name, rep.ReplacedInstances, rep.ReroutedPins, rep.RippedSegments, rep.AddedSegments)
	fmt.Fprintf(&report, "bus renames: %d, global renames: %d, property changes: %d, callbacks: %d\n",
		rep.BusRenames, rep.GlobalRenames, rep.PropChanges, rep.CallbackRuns)
	fmt.Fprintf(&report, "connectors added: %d, text adjusted: %d, geometric similarity: %.1f%%\n",
		rep.ConnectorsAdded, rep.TextAdjusted, rep.GeometricSimilarity*100)
	fmt.Fprintf(&report, "verification: %s\n", netlist.Summary(rep.Verification))
	if rep.StructuralMatch != nil {
		if *rep.StructuralMatch {
			fmt.Fprintln(&report, "structural second opinion: tops match up to renaming (naming fallout only)")
		} else {
			fmt.Fprintln(&report, "structural second opinion: connectivity damaged")
		}
	}
	if verbose {
		for _, d := range rep.Verification {
			fmt.Fprintln(&report, "  ", d)
		}
	}
	var entry bytes.Buffer
	fmt.Fprintf(&entry, "%s %d\n", migrateVersion, report.Len())
	entry.Write(report.Bytes())
	cd.Write(&entry, out) // a bytes.Buffer never fails a write
	return entry.Bytes()
}

// writeMigration writes a rendered migration's report to reportW and its
// design to designW. ok is false, and nothing is written, when entry is
// not a migration of this version. As everywhere in this package, report
// text is written unchecked; the design's write error is returned, since
// schemig -out sends the design to a file.
func writeMigration(reportW, designW io.Writer, entry []byte) (ok bool, err error) {
	head, rest, found := bytes.Cut(entry, []byte("\n"))
	size, versioned := strings.CutPrefix(string(head), migrateVersion+" ")
	n, aerr := strconv.Atoi(size)
	if !found || !versioned || aerr != nil || n < 0 || n > len(rest) {
		return false, nil
	}
	_, _ = reportW.Write(rest[:n])
	_, err = designW.Write(rest[n:])
	return true, err
}

// parseMapFile loads SYM/GLOBAL/PROP/CALLBACK directives (the cmd/schemig
// map file format) into opts.
func parseMapFile(path string, opts *migrate.Options) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(msg string) error {
			return fmt.Errorf("%s:%d: %s: %q", path, ln+1, msg, line)
		}
		switch f[0] {
		case "SYM":
			if len(f) < 3 {
				return bad("SYM wants from and to")
			}
			from, err := parseSymbolKey(f[1])
			if err != nil {
				return bad(err.Error())
			}
			to, err := parseSymbolKey(f[2])
			if err != nil {
				return bad(err.Error())
			}
			m := migrate.SymbolMap{From: from, To: to, PinMap: map[string]string{}}
			for _, pm := range f[3:] {
				kv := strings.SplitN(pm, "=", 2)
				if len(kv) != 2 {
					return bad("bad pin map " + pm)
				}
				m.PinMap[kv[0]] = kv[1]
			}
			opts.Symbols = append(opts.Symbols, m)
		case "GLOBAL":
			if len(f) != 3 {
				return bad("GLOBAL wants from and to")
			}
			if opts.GlobalMap == nil {
				opts.GlobalMap = map[string]string{}
			}
			opts.GlobalMap[f[1]] = f[2]
		case "PROP":
			if len(f) < 3 {
				return bad("PROP wants an action")
			}
			switch f[1] {
			case "rename":
				if len(f) != 4 {
					return bad("PROP rename wants old and new")
				}
				opts.PropRules = append(opts.PropRules, migrate.PropRule{
					Action: migrate.PropRename, Name: f[2], NewName: f[3]})
			case "delete":
				opts.PropRules = append(opts.PropRules, migrate.PropRule{
					Action: migrate.PropDelete, Name: f[2]})
			case "add":
				if len(f) != 4 {
					return bad("PROP add wants name and value")
				}
				opts.PropRules = append(opts.PropRules, migrate.PropRule{
					Action: migrate.PropAdd, Name: f[2], NewValue: f[3]})
			default:
				return bad("unknown PROP action")
			}
		case "CALLBACK":
			if len(f) != 3 {
				return bad("CALLBACK wants prop name and script file")
			}
			script, err := os.ReadFile(f[2])
			if err != nil {
				return err
			}
			opts.Callbacks = append(opts.Callbacks, migrate.Callback{
				PropName: f[1], Script: string(script)})
		default:
			return bad("unknown directive")
		}
	}
	return nil
}

func parseSymbolKey(s string) (schematic.SymbolKey, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return schematic.SymbolKey{}, fmt.Errorf("bad symbol key %q (want lib:cell:view)", s)
	}
	return schematic.SymbolKey{Lib: parts[0], Name: parts[1], View: parts[2]}, nil
}

// --- /v1/flow: the Section 5 hierarchical tapeout workflow (cmd/flowrun)

// FlowRequest executes the built-in hierarchical tapeout workflow:
// per-block sub-flows, data-maturity gates, trigger-based rework, and
// optionally deterministic fault injection with a retry policy. Rework
// defaults to true (the CLI default); send false explicitly to disable.
type FlowRequest struct {
	Blocks  int    `json:"blocks,omitempty"`
	Store   string `json:"store,omitempty"`
	Events  bool   `json:"events,omitempty"`
	Dot     bool   `json:"dot,omitempty"`
	Rework  *bool  `json:"rework,omitempty"`
	Faults  string `json:"faults,omitempty"`
	Retries int    `json:"retries,omitempty"`
	// AttemptTicks is the per-attempt virtual-clock budget armed with the
	// retry policy (0 = the CLI's 16). This is the virtual half of the
	// deadline story (DESIGN.md §5i): the wall-clock request deadline
	// cancels between stages, while AttemptTicks bounds each tool attempt
	// on the engine's own deterministic clock.
	AttemptTicks int   `json:"attempt_ticks,omitempty"`
	DeadlineMS   int64 `json:"deadline_ms,omitempty"`
	// Journal names a durable run-journal file: every workflow state
	// transition is appended (fsync'd per record) as it happens, so a
	// killed run leaves an exact record of how far it got. "" disables
	// journaling — and the run is then byte-identical to a journaled one.
	Journal string `json:"journal,omitempty"`
	// Resume replays an existing journal instead of starting fresh: the
	// run configuration comes from the journal's own header (flags other
	// than the journal path are ignored), recovered records are validated
	// and applied, and execution continues live from the crash point. The
	// resumed run's output is byte-identical to an uninterrupted one.
	Resume bool `json:"resume,omitempty"`
	// JournalCrash > 0 arms the deterministic crash hook: the process
	// exits with status 137 after that many journal appends — the
	// crash-resume smoke's way of dying at an exact record boundary.
	JournalCrash int `json:"journal_crash,omitempty"`
}

// WithDefaults fills zero fields with the cmd/flowrun flag defaults.
func (r FlowRequest) WithDefaults() FlowRequest {
	if r.Blocks == 0 {
		r.Blocks = 4
	}
	if r.Store == "" {
		r.Store = "mem"
	}
	return r
}

func (r FlowRequest) deadlineMS() int64 { return r.DeadlineMS }

// rework resolves the tri-state flag: unset means the CLI default, true.
func (r FlowRequest) rework() bool { return r.Rework == nil || *r.Rework }

// Flow instantiates and drives the tapeout workflow, rendering
// cmd/flowrun's stdout to w. With withObs the run records onto the
// instance's virtual clock and the ended recorder is returned for the
// caller to export (the CLI writes -trace/-metrics files from it; the
// daemon serves it on /debug/trace). The context is honored between
// engine passes — a workflow pass runs to quiescence or not at all.
func Flow(ctx context.Context, w io.Writer, req FlowRequest, withObs bool) (*obs.Recorder, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var fj *workflow.FlowJournal
	if req.Journal != "" {
		var err error
		fj, req, err = openFlowJournal(req)
		if err != nil {
			return nil, err
		}
		defer fj.Close()
	}
	var store workflow.DataStore
	switch req.Store {
	case "mem":
		store = workflow.NewMemStore()
	case "versioned":
		store = workflow.NewVersionedStore()
	default:
		return nil, fmt.Errorf("unknown store %q", req.Store)
	}
	var inj *fault.Injector
	if req.Faults != "" {
		var err error
		if inj, err = fault.ParseSpec(req.Faults); err != nil {
			return nil, err
		}
	}
	// Checked after the journal opens: a resumed run's block count comes
	// from the journal header, not from the caller.
	if req.Blocks < 0 {
		return nil, fmt.Errorf("blocks must not be negative, got %d", req.Blocks)
	}
	blockNames := make([]string, req.Blocks)
	for i := range blockNames {
		blockNames[i] = fmt.Sprintf("blk%02d", i)
	}
	sub := &workflow.Template{Name: "blockflow", Steps: []*workflow.StepDef{
		{Name: "rtl", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int {
			c.Data().Put("rtl:"+c.Block, "module "+c.Block)
			return 0
		}}},
		{Name: "synth", Action: workflow.FuncAction{Language: "tcl", Fn: func(c *workflow.Ctx) int {
			c.Data().Put("netlist:"+c.Block, "gates for "+c.Block)
			return 0
		}}, StartAfter: []string{"rtl"}},
		{Name: "verify", Action: workflow.FuncAction{Language: "perl", Fn: func(c *workflow.Ctx) int {
			if _, _, ok := c.Data().Get("netlist:" + c.Block); !ok {
				return 1
			}
			return 0
		}}, StartAfter: []string{"synth"}},
	}}
	tpl := &workflow.Template{Name: "tapeout", Steps: []*workflow.StepDef{
		{Name: "plan", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int {
			c.Data().Put("floorplan", "rev1")
			c.SetVar("floorplan.rev", "1")
			return 0
		}}, Outputs: []string{"floorplan"}},
		{Name: "blocks", SubFlow: sub, StartAfter: []string{"plan"}},
		{Name: "assemble", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int { return 0 }},
			StartAfter: []string{"blocks"},
			Inputs:     []workflow.MaturityCheck{{Item: "floorplan", Exists: true}}},
		{Name: "signoff", Action: workflow.FuncAction{Fn: func(c *workflow.Ctx) int { return 0 }},
			StartAfter: []string{"assemble"}, Permissions: []string{"manager"}},
	}}
	if req.Retries > 1 {
		ticks := req.AttemptTicks
		if ticks <= 0 {
			ticks = 16
		}
		applyRetry(tpl, workflow.RetryPolicy{MaxAttempts: req.Retries, Backoff: 2, AttemptTimeout: ticks})
	}
	in, err := workflow.Instantiate(tpl, store, blockNames)
	if err != nil {
		return nil, err
	}
	in.Faults = inj
	in.AttachJournal(fj)
	fmt.Fprintf(w, "instantiated %q: %d tasks over %d blocks (store: %s)\n",
		tpl.Name, len(in.Tasks), req.Blocks, req.Store)
	if req.Dot {
		fmt.Fprint(w, in.DOT(tpl.Name))
		return nil, nil
	}
	// The recorder runs on the instance's own virtual clock, so the trace
	// and metrics are byte-identical for identical request settings.
	var rec *obs.Recorder
	var root obs.SpanID
	if withObs {
		rec = obs.New(in)
		root = rec.Start(0, "flowrun")
		in.Observe(rec, root)
	}
	if inj != nil {
		err := runWithFaults(ctx, in, w, req, inj)
		rec.End(root)
		if err == nil {
			err = in.JournalErr()
		}
		return rec, err
	}
	if err := in.Run("engineer"); err != nil {
		return rec, err
	}
	if err := in.Run("manager"); err != nil {
		return rec, err
	}
	fmt.Fprintf(w, "first pass complete: %v\n", statusLine(in))

	if req.rework() {
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		if err := in.Reset("plan", "engineer"); err != nil {
			return rec, err
		}
		if err := in.RunTask("plan", "engineer"); err != nil {
			return rec, err
		}
		for _, n := range in.Notifications {
			fmt.Fprintln(w, "NOTIFY:", n)
		}
		if err := in.Run("engineer"); err != nil {
			return rec, err
		}
		if err := in.Run("manager"); err != nil {
			return rec, err
		}
		fmt.Fprintf(w, "after rework: %v\n", statusLine(in))
	}

	finish(in, w, req.Events, store)
	rec.End(root)
	return rec, in.JournalErr()
}

// openFlowJournal opens req.Journal and returns the bound journal plus
// the effective request. Fresh mode refuses a journal that already holds
// a run (resuming must be explicit — silently restarting over a crashed
// run's journal would destroy the very state it exists to preserve) and
// stamps the canonical run config as the journal header. Resume mode
// reads the config back from that header: the journal, not the caller's
// flags, defines the run being continued.
func openFlowJournal(req FlowRequest) (*workflow.FlowJournal, FlowRequest, error) {
	recs, jw, err := journal.OpenFile(req.Journal)
	if err != nil {
		return nil, req, err
	}
	fail := func(err error) (*workflow.FlowJournal, FlowRequest, error) {
		jw.Close()
		return nil, req, err
	}
	if !req.Resume {
		if len(recs) > 0 {
			return fail(fmt.Errorf("journal %q already holds a run (%d records); use resume to continue it", req.Journal, len(recs)))
		}
		fj := workflow.NewFlowJournal(jw)
		meta, err := json.Marshal(canonicalFlowConfig(req))
		if err != nil {
			return fail(err)
		}
		if err := fj.Meta("begin", meta); err != nil {
			return fail(err)
		}
		if req.JournalCrash > 0 {
			jw.CrashAfter(req.JournalCrash)
		}
		return fj, req, nil
	}
	if len(recs) == 0 {
		return fail(fmt.Errorf("journal %q has no valid records to resume", req.Journal))
	}
	kind, meta, err := workflow.DecodeMeta(recs[0].Payload)
	if err != nil {
		return fail(err)
	}
	if kind != "begin" {
		return fail(fmt.Errorf("journal %q does not start with a run header (got %q record)", req.Journal, kind))
	}
	var saved FlowRequest
	if err := json.Unmarshal(meta, &saved); err != nil {
		return fail(fmt.Errorf("journal %q run header: %w", req.Journal, err))
	}
	// The journaled config drives the run; only runtime concerns carry
	// over from the caller.
	saved.Journal, saved.Resume = req.Journal, true
	saved.JournalCrash, saved.DeadlineMS = req.JournalCrash, req.DeadlineMS
	fj := workflow.ResumeFlowJournal(jw, recs)
	if err := fj.Meta("begin", meta); err != nil {
		return fail(err)
	}
	if req.JournalCrash > 0 {
		jw.CrashAfter(req.JournalCrash)
	}
	return fj, saved, nil
}

// canonicalFlowConfig is the run configuration stamped into (and read
// back from) a journal header: the engine-visible settings, with the
// rework tri-state resolved and the runtime-only fields cleared so the
// header is stable across the crash/resume boundary.
func canonicalFlowConfig(req FlowRequest) FlowRequest {
	c := req.WithDefaults()
	rw := c.rework()
	c.Rework = &rw
	c.Journal, c.Resume, c.JournalCrash, c.DeadlineMS = "", false, 0, 0
	return c
}

// applyRetry arms every step of the template — and recursively every
// sub-flow step — with the same retry policy.
func applyRetry(tpl *workflow.Template, p workflow.RetryPolicy) {
	for _, s := range tpl.Steps {
		s.Retry = p
		if s.SubFlow != nil {
			applyRetry(s.SubFlow, p)
		}
	}
}

// runWithFaults drives the instance in continue-on-error mode: every task
// not downstream of a permanently failed one completes, and the rest come
// back as a partial-failure summary instead of an abort.
func runWithFaults(ctx context.Context, in *workflow.Instance, w io.Writer, req FlowRequest, inj *fault.Injector) error {
	in.RunContinue("engineer")
	sum := in.RunContinue("manager")
	if err := in.JournalErr(); err != nil {
		return err
	}
	fmt.Fprintf(w, "first pass (faults %s): %s\n", inj.Spec(), sum)
	printDamage(in, w, sum)

	if req.rework() && in.Tasks["plan"].State == workflow.Done {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := in.Reset("plan", "engineer"); err != nil {
			return err
		}
		if err := in.RunTask("plan", "engineer"); err != nil {
			return err
		}
		for _, n := range in.Notifications {
			fmt.Fprintln(w, "NOTIFY:", n)
		}
		in.RunContinue("engineer")
		sum = in.RunContinue("manager")
		if err := in.JournalErr(); err != nil {
			return err
		}
		fmt.Fprintf(w, "after rework: %s\n", sum)
		printDamage(in, w, sum)
	}

	finish(in, w, req.Events, in.Data)
	return nil
}

// printDamage lists failed tasks and blocked-task reasons in task order.
func printDamage(in *workflow.Instance, w io.Writer, sum *workflow.RunSummary) {
	for _, name := range sum.Failed {
		t := in.Tasks[name]
		fmt.Fprintf(w, "FAILED:  %-26s status %d after %d attempt(s)\n", name, t.Status, t.Attempts)
	}
	for _, name := range in.TaskNames() {
		if why, ok := sum.Blocked[name]; ok {
			fmt.Fprintf(w, "BLOCKED: %-26s %s\n", name, why)
		}
	}
}

// finish prints the metrics tail shared by both run modes.
func finish(in *workflow.Instance, w io.Writer, printEvents bool, store workflow.DataStore) {
	// A journaled run wraps the store; the report wants the real one.
	if u, ok := store.(interface{ Unwrap() workflow.DataStore }); ok {
		store = u.Unwrap()
	}
	m := workflow.CollectMetrics(in)
	fmt.Fprintln(w, "metrics:", m.Summary())
	fmt.Fprintln(w, "bottlenecks:", m.Bottlenecks(3))
	if printEvents {
		for _, e := range in.Events {
			fmt.Fprintf(w, "t=%-4d %-28s %-8s %s\n", e.Tick, e.Task, e.Kind, e.Msg)
		}
	}
	if vs, ok := store.(*workflow.VersionedStore); ok {
		fmt.Fprintln(w, "data history:", vs.History())
	}
}

func statusLine(in *workflow.Instance) string {
	s := in.Status()
	return fmt.Sprintf("done=%d failed=%d pending=%d complete=%v",
		s[workflow.Done], s[workflow.Failed], s[workflow.Pending], in.Complete())
}

package cadinterop

// Scale soak tests: the library must stay correct well beyond the sizes
// the unit tests use. Skipped in -short mode.

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"cadinterop/internal/core"
	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/migrate"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
	"cadinterop/internal/workflow"
	"cadinterop/internal/workgen"
)

func TestScaleMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 1000, Pages: 12, Seed: 99})
	out, rep, err := migrate.Migrate(w.Design, w.MigrateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verification) != 0 {
		t.Fatalf("verification at 1000 instances: %s", netlist.Summary(rep.Verification))
	}
	if rep.ReplacedInstances != 1000 {
		t.Errorf("replaced = %d", rep.ReplacedInstances)
	}
	if vs := schematic.CD.Check(out); len(vs) != 0 {
		t.Errorf("CD violations at scale: %d (first: %v)", len(vs), vs[0])
	}
}

// TestScaleStreamingInterchange is the 100×-scale acceptance check for the
// exchange reader's entry points: a 10⁵-net design parses to the identical
// netlist and diagnostics from memory (ReadBytes) and from a reader
// (ReadStreamStats), and the parse window — the only input-proportional
// memory the reader would otherwise need — stays near the 32KB scanner
// chunk instead of the ~10MB file. The same design is then parsed a third
// time straight off the generator through an io.Pipe, so no byte of the
// file is ever materialized.
func TestScaleStreamingInterchange(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	opts := workgen.ScaleOptions{Nets: 100_000, Seed: 61}
	var buf bytes.Buffer
	info, err := workgen.ScaleExchange(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts := exchange.ReadOptions{RequireTrailer: true}

	bnl, bdiags, berr := exchange.ReadBytes(buf.Bytes(), ropts)
	if berr != nil {
		t.Fatalf("in-memory read: %v", berr)
	}
	snl, sdiags, stats, serr := exchange.ReadStreamStats(bytes.NewReader(buf.Bytes()), ropts)
	if serr != nil {
		t.Fatalf("reader read: %v", serr)
	}
	if !reflect.DeepEqual(bdiags, sdiags) {
		t.Fatalf("diagnostics mismatch:\nin-memory:\n%s\nreader:\n%s", diag.Render(bdiags), diag.Render(sdiags))
	}
	if !reflect.DeepEqual(bnl, snl) {
		t.Fatal("netlist read from a reader differs from the in-memory read")
	}
	if stats.InputBytes != info.Bytes {
		t.Errorf("InputBytes = %d, want %d", stats.InputBytes, info.Bytes)
	}
	if limit := 3 * 32 << 10; stats.MaxWindow > limit {
		t.Errorf("MaxWindow = %d, want <= %d (input %d bytes)", stats.MaxWindow, limit, info.Bytes)
	}

	pr, pw := io.Pipe()
	go func() {
		_, err := workgen.ScaleExchange(pw, opts)
		pw.CloseWithError(err)
	}()
	pnl, pdiags, perr := exchange.ReadStream(pr, ropts)
	if perr != nil {
		t.Fatalf("piped read: %v", perr)
	}
	if !reflect.DeepEqual(bnl, pnl) || !reflect.DeepEqual(bdiags, pdiags) {
		t.Fatal("piped parse differs from the in-memory parse")
	}
	if st := pnl.Stats(); st.Nets != info.Nets || st.Instances != info.Insts {
		t.Errorf("parsed %d nets / %d insts, manifest says %d / %d",
			st.Nets, st.Instances, info.Nets, info.Insts)
	}
}

func TestScaleMethodology(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	// 50 blocks ≈ 680 tasks: well past the paper's ~200.
	g := core.CellBasedMethodology(50)
	if err := g.Validate(core.MethodologyPrimaries()); err != nil {
		t.Fatal(err)
	}
	if g.Len() < 600 {
		t.Errorf("tasks = %d", g.Len())
	}
	cat := core.DefaultCatalog(50)
	res := core.Analyze(g, cat, core.BestInClassMapping(g))
	if res.PerKind()[core.ProblemHole] != 0 {
		t.Errorf("holes at scale: %d", res.PerKind()[core.ProblemHole])
	}
	if len(res.Problems) == 0 {
		t.Error("no problems found at scale")
	}
}

func TestScaleWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	blocks := make([]string, 200)
	for i := range blocks {
		blocks[i] = string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i%10))
	}
	sub := &workflow.Template{Name: "s", Steps: []*workflow.StepDef{
		{Name: "w1", Action: workflow.FuncAction{Fn: func(*workflow.Ctx) int { return 0 }}},
		{Name: "w2", Action: workflow.FuncAction{Fn: func(*workflow.Ctx) int { return 0 }},
			StartAfter: []string{"w1"}},
	}}
	tpl := &workflow.Template{Name: "big", Steps: []*workflow.StepDef{
		{Name: "blocks", SubFlow: sub},
		{Name: "done", Action: workflow.FuncAction{Fn: func(*workflow.Ctx) int { return 0 }},
			StartAfter: []string{"blocks"}},
	}}
	in, err := workflow.Instantiate(tpl, nil, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run("u"); err != nil {
		t.Fatal(err)
	}
	if !in.Complete() {
		t.Fatalf("incomplete at 200 blocks: %v", in.Status())
	}
	if len(in.Tasks) != 200*2+2 {
		t.Errorf("tasks = %d", len(in.Tasks))
	}
}

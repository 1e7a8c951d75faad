package backplane

import (
	"reflect"
	"testing"

	"cadinterop/internal/floorplan"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/workgen"
)

func cachedGen(t testing.TB, cells int, seed int64) func() (*phys.Design, *floorplan.Floorplan, error) {
	t.Helper()
	return func() (*phys.Design, *floorplan.Floorplan, error) {
		return workgen.PhysDesign(workgen.PhysOptions{
			Cells: cells, Seed: seed, CriticalNets: 3, Keepouts: 1,
		})
	}
}

// summarize projects a FlowResult onto the fields every consumer reads —
// the contract a warm cache hit must reproduce exactly.
type flowSummary struct {
	Tool        string
	Place       interface{}
	Wirelength  int
	Vias        int
	ShieldLen   int
	Failed      []string
	FailReasons []string
	Violations  interface{}
	Loss        interface{}
}

func summarize(res *FlowResult) flowSummary {
	return flowSummary{
		Tool:        res.Tool,
		Place:       *res.Place,
		Wirelength:  res.Route.Wirelength,
		Vias:        res.Route.Vias,
		ShieldLen:   res.Route.ShieldLen,
		Failed:      res.Route.Failed,
		FailReasons: res.Route.FailReasons,
		Violations:  res.Violations,
		Loss:        *res.Loss,
	}
}

// TestRunFlowsWarmCacheSkipsTools runs the same fan-out twice through one
// cache: the warm run must execute zero tools (backplane.tool_execs stays
// flat) while reproducing every consumed result field exactly.
func TestRunFlowsWarmCacheSkipsTools(t *testing.T) {
	gen := cachedGen(t, 20, 11)
	cache := memo.New(nil)
	tools := AllTools()

	rec1 := obs.New(nil)
	cold, err := RunFlowsObserved(gen, tools, 5, false, rec1, cache, par.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec1.Metrics().Counter("backplane.tool_execs").Value(); got != int64(len(tools)) {
		t.Fatalf("cold tool_execs = %d, want %d", got, len(tools))
	}
	if cache.Hits() != 0 || cache.Misses() == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}

	rec2 := obs.New(nil)
	warm, err := RunFlowsObserved(gen, tools, 5, false, rec2, cache, par.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Metrics().Counter("backplane.tool_execs").Value(); got != 0 {
		t.Errorf("warm tool_execs = %d, want 0", got)
	}
	if got := cache.Hits(); got != int64(len(tools)) {
		t.Errorf("warm hits = %d, want %d", got, len(tools))
	}
	for i := range cold {
		if !reflect.DeepEqual(summarize(cold[i]), summarize(warm[i])) {
			t.Errorf("tool %s: warm result differs from cold:\ncold %+v\nwarm %+v",
				cold[i].Tool, summarize(cold[i]), summarize(warm[i]))
		}
	}
}

// TestFlowCacheKeySeparatesInputs: flows that differ in any input — seed,
// tool dialect, netlist content — must occupy distinct cache entries.
func TestFlowCacheKeySeparatesInputs(t *testing.T) {
	d, fp, err := cachedGen(t, 20, 11)()
	if err != nil {
		t.Fatal(err)
	}
	base, ok := flowKey(d, fp, ToolP, 5, false)
	if !ok {
		t.Fatal("flowKey failed")
	}
	if k, _ := flowKey(d, fp, ToolP, 6, false); k == base {
		t.Error("seed change did not change the key")
	}
	if k, _ := flowKey(d, fp, ToolQ, 5, false); k == base {
		t.Error("dialect change did not change the key")
	}
	if k, _ := flowKey(d, fp, ToolP, 5, true); k == base {
		t.Error("round-trip gate change did not change the key")
	}
	d2, fp2, err := cachedGen(t, 22, 11)()
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := flowKey(d2, fp2, ToolP, 5, false); k.Content == base.Content {
		t.Error("different netlist hashed to the same content")
	}
	// Same inputs regenerate the same key (gen is deterministic).
	if k, _ := flowKey(d, fp, ToolP, 5, false); k != base {
		t.Error("identical inputs produced different keys")
	}
}

// TestFlowCacheSkipsFailedFlows: a failing flow must not poison the cache.
func TestFlowCacheSkipsFailedFlows(t *testing.T) {
	if _, ok := encodeFlow(&FlowResult{Tool: "toolP", Err: ErrTranslate}); ok {
		t.Error("failed flow was encodable")
	}
	if _, ok := encodeFlow(nil); ok {
		t.Error("nil flow was encodable")
	}
	if _, _, err := cachedGen(t, 20, 11)(); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFlow([]byte("not json")); ok {
		t.Error("garbage decoded")
	}
	if _, ok := decodeFlow([]byte(`{"Version":"backplane-flow/v0"}`)); ok {
		t.Error("stale version decoded")
	}
}

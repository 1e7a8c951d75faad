package workflow

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cadinterop/internal/fault"
	"cadinterop/internal/obs"
)

// observe attaches a fresh recorder rooted at a "run" span.
func observe(in *Instance) (*obs.Recorder, obs.SpanID) {
	rec := obs.New(in)
	root := rec.Start(0, "run")
	in.Observe(rec, root)
	return rec, root
}

// TestHeldAutoPromotionOrdering: a chain of held tasks whose finish
// dependencies point at one another must promote to fixpoint in one
// sweep, in deterministic task-name order, and each promotion must close
// the task's span with a "promoted" event.
func TestHeldAutoPromotionOrdering(t *testing.T) {
	// h1 holds on h2, h2 holds on h3, h3 holds on "gate". Completing gate
	// must promote h3, then h2, then h1 — one promoteHeld fixpoint.
	tpl := &Template{Name: "chain", Steps: []*StepDef{
		{Name: "h1", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, FinishRequires: []string{"h2"}},
		{Name: "h2", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, FinishRequires: []string{"h3"}},
		{Name: "h3", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, FinishRequires: []string{"gate"}},
		{Name: "gate", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
	}}
	in, err := Instantiate(tpl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, root := observe(in)
	for _, name := range []string{"h1", "h2", "h3"} {
		if err := in.RunTask(name, "u"); err != nil {
			t.Fatal(err)
		}
		if in.Tasks[name].State != Held {
			t.Fatalf("%s = %v, want Held", name, in.Tasks[name].State)
		}
	}
	if err := in.RunTask("gate", "u"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"h1", "h2", "h3", "gate"} {
		if in.Tasks[name].State != Done {
			t.Errorf("%s = %v, want Done after the promotion fixpoint", name, in.Tasks[name].State)
		}
	}
	// The "done" events record the promotion order: gate completes first,
	// then the held chain unwinds h3 → h2 → h1? No — promoteHeld scans
	// TaskNames() (sorted) to fixpoint, so h1 cannot promote until h2 has,
	// h2 not until h3 has: three passes, one promotion each, in dependency
	// order regardless of name order.
	var doneOrder []string
	for _, e := range in.Events {
		if e.Kind == "done" {
			doneOrder = append(doneOrder, e.Task)
		}
	}
	want := []string{"gate", "h3", "h2", "h1"}
	if fmt.Sprint(doneOrder) != fmt.Sprint(want) {
		t.Errorf("promotion order = %v, want %v", doneOrder, want)
	}
	rec.End(root)
	if err := rec.Check(); err != nil {
		t.Fatalf("span invariants after promotion: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	for _, name := range []string{"h1", "h2", "h3"} {
		if !strings.Contains(tree, name+" [") {
			t.Errorf("no span for %s:\n%s", name, tree)
		}
	}
	if got := strings.Count(tree, "promoted"); got != 3 {
		t.Errorf("promoted events = %d, want 3:\n%s", got, tree)
	}
	if rec.Metrics().Counter("workflow.promoted").Value() != 3 {
		t.Error("workflow.promoted != 3")
	}
}

// TestResetHeldEndsSpan: resetting a Held task ends the span of its parked
// run at the reset tick, with an event naming the reset, so the span does
// not stay open until the root ends; the rerun opens a span of its own.
func TestResetHeldEndsSpan(t *testing.T) {
	tpl := &Template{Name: "reset", Steps: []*StepDef{
		{Name: "h", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, FinishRequires: []string{"gate"}},
		{Name: "gate", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
	}}
	in, err := Instantiate(tpl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, root := observe(in)
	if err := in.RunTask("h", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["h"].State != Held || in.clock != 2 {
		t.Fatalf("h = %v at tick %d, want Held at tick 2", in.Tasks["h"].State, in.clock)
	}
	if err := in.Reset("h", "u"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gate", "h"} {
		if err := in.RunTask(name, "u"); err != nil {
			t.Fatal(err)
		}
	}
	if in.Tasks["h"].State != Done {
		t.Fatalf("h = %v after its rerun, want Done", in.Tasks["h"].State)
	}
	rec.End(root)
	if err := rec.Check(); err != nil {
		t.Fatalf("span invariants: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	tree := buf.String()
	for _, want := range []string{
		"  h [0,2] state=held\n",
		"    @2 rerun: reset by u\n",
		"  h [4,6] state=done\n",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace lacks %q:\n%s", want, tree)
		}
	}
}

// TestRunSummaryBlockedReasons: one quiescent instance exercising every
// blocked-reason branch — held on a finish dependency, downstream of a
// failed task, an unmet maturity check, and permission-gating.
func TestRunSummaryBlockedReasons(t *testing.T) {
	inj := scriptInjector{"doomed/1": {Kind: fault.Crash}}
	store := NewMemStore()
	tpl := &Template{Name: "reasons", Steps: []*StepDef{
		{Name: "doomed", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
		{Name: "downstream", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			StartAfter: []string{"doomed"}},
		{Name: "held", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			FinishRequires: []string{"downstream"}},
		{Name: "immature", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Inputs: []MaturityCheck{{Item: "absent", Exists: true}}},
		{Name: "gated", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Permissions: []string{"manager"}},
	}}
	in, err := Instantiate(tpl, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Faults = inj
	sum := in.RunContinue("engineer")
	if len(sum.Failed) != 1 || sum.Failed[0] != "doomed" {
		t.Fatalf("failed = %v, want [doomed]", sum.Failed)
	}
	wantSubstr := map[string]string{
		"downstream": `downstream of failed task "doomed"`,
		"held":       `held on finish dependency "downstream"`,
		"immature":   `"absent"`,
		"gated":      "permission-gated",
	}
	for name, substr := range wantSubstr {
		why, ok := sum.Blocked[name]
		if !ok {
			t.Errorf("%s not in Blocked: %v", name, sum.Blocked)
			continue
		}
		if !strings.Contains(why, substr) {
			t.Errorf("%s blocked reason = %q, want substring %q", name, why, substr)
		}
	}
	if sum.Completed != 0 {
		t.Errorf("completed = %d, want 0", sum.Completed)
	}
}

// TestObsCountersMatchInjectedSchedule: the engine counters must agree
// exactly with the injected schedule and with CollectMetrics — attempts,
// faults, retries, and the per-task attempts histogram all reconcile.
func TestObsCountersMatchInjectedSchedule(t *testing.T) {
	const maxAttempts = 3
	steps := make([]*StepDef, 12)
	names := make([]string, len(steps))
	for i := range steps {
		names[i] = fmt.Sprintf("s%02d", i)
		steps[i] = &StepDef{
			Name:   names[i],
			Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Retry:  RetryPolicy{MaxAttempts: maxAttempts, Backoff: 1},
		}
	}
	inj := fault.New(21, 0.45).Only(fault.Crash, fault.Exit)
	in, err := Instantiate(&Template{Name: "sched", Steps: steps}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Faults = inj
	rec, root := observe(in)
	in.RunContinue("u")
	rec.End(root)

	// Walk the schedule the way the engine does and predict every counter.
	var wantAttempts, wantFaults, wantRetries, wantDone, wantFailed int64
	for _, name := range names {
		attempts := 0
		done := false
		for a := 1; a <= maxAttempts; a++ {
			attempts++
			if inj.Draw(name, a).Kind == fault.None {
				done = true
				break
			}
			wantFaults++
		}
		wantAttempts += int64(attempts)
		wantRetries += int64(attempts - 1)
		if done {
			wantDone++
		} else {
			wantFailed++
		}
	}
	reg := rec.Metrics()
	checks := []struct {
		name string
		want int64
	}{
		{"workflow.attempts", wantAttempts},
		{"workflow.faults", wantFaults},
		{"workflow.retries", wantRetries},
		{"workflow.tasks.done", wantDone},
		{"workflow.tasks.failed", wantFailed},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, schedule says %d", c.name, got, c.want)
		}
	}
	h := reg.Histogram("workflow.attempts.per.task", 1, 2, 3, 5, 8)
	if h.Count() != int64(len(names)) {
		t.Errorf("attempts histogram count = %d, want %d", h.Count(), len(names))
	}
	if h.Sum() != wantAttempts {
		t.Errorf("attempts histogram sum = %d, want %d", h.Sum(), wantAttempts)
	}
	// CollectMetrics and the obs counters must tell the same story.
	var cmAttempts int64
	for _, tm := range CollectMetrics(in).PerTask {
		cmAttempts += int64(tm.Attempts)
	}
	if cmAttempts != wantAttempts {
		t.Errorf("CollectMetrics attempts = %d, obs says %d", cmAttempts, wantAttempts)
	}
	if wantFaults == 0 {
		t.Error("schedule injected nothing at rate 0.45 — test is vacuous")
	}
}

// TestWorkflowTraceDeterministic: two identically seeded faulted runs
// render byte-identical span trees, with retry attempts visible as child
// spans carrying fault events.
func TestWorkflowTraceDeterministic(t *testing.T) {
	render := func() string {
		steps := []*StepDef{
			{Name: "plan", Action: FuncAction{Fn: func(c *Ctx) int {
				c.Data().Put("fp", "v1")
				return 0
			}}, Outputs: []string{"fp"}, Retry: RetryPolicy{MaxAttempts: 3, Backoff: 2}},
		}
		for i := 0; i < 6; i++ {
			steps = append(steps, &StepDef{
				Name:       fmt.Sprintf("blk%d", i),
				Action:     FuncAction{Fn: func(*Ctx) int { return 0 }},
				StartAfter: []string{"plan"},
				Inputs:     []MaturityCheck{{Item: "fp", Exists: true, Contains: "v1"}},
				Retry:      RetryPolicy{MaxAttempts: 3, Backoff: 2, AttemptTimeout: 12},
			})
		}
		in, err := Instantiate(&Template{Name: "d", Steps: steps}, NewMemStore(), nil)
		if err != nil {
			t.Fatal(err)
		}
		in.Faults = fault.New(99, 0.5)
		rec, root := observe(in)
		in.RunContinue("u")
		rec.End(root)
		if err := rec.Check(); err != nil {
			t.Fatalf("span invariants: %v", err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTree(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("same seed, different traces:\n--- a\n%s\n--- b\n%s", a, b)
	}
	if !strings.Contains(a, "attempt") || !strings.Contains(a, "n=2") {
		t.Errorf("no retry attempt spans in trace:\n%s", a)
	}
	if !strings.Contains(a, "fault") {
		t.Errorf("no fault events in trace:\n%s", a)
	}
}

// TestAllocsWorkflowDisabled: the exact instrumentation call sites the
// engine runs per task must be free when no recorder is attached — nil
// counters, nil histogram, nil tracer.
func TestAllocsWorkflowDisabled(t *testing.T) {
	tpl := &Template{Name: "a", Steps: []*StepDef{
		{Name: "s", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
	}}
	in, err := Instantiate(tpl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tk := in.Tasks["s"]
	if n := testing.AllocsPerRun(200, func() {
		in.mAttempts.Inc()
		in.mRetries.Inc()
		in.mBackoff.Add(2)
		in.hAttempts.Observe(3)
		sp := in.tracer.Start(in.traceRoot, "attempt")
		in.tracer.AttrInt(sp, "n", 1)
		in.tracer.Event(tk.span, "fault", "crash")
		in.tracer.EventN(tk.span, "backoff", 2)
		in.tracer.Attr(tk.span, "state", "done")
		in.tracer.End(sp)
	}); n != 0 {
		t.Errorf("disabled observability costs %v allocs per task", n)
	}
}

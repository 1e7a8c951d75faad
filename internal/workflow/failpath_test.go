package workflow

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cadinterop/internal/fault"
)

// scriptInjector deals a scripted fault per (task, attempt) — exact
// control for failure-path tests.
type scriptInjector map[string]fault.Fault

func (s scriptInjector) Draw(task string, attempt int) fault.Fault {
	return s[fmt.Sprintf("%s/%d", task, attempt)]
}

// TestHeldTaskFiresTriggers: a task whose finish dependency is incomplete
// has already run and written outputs — downstream Done consumers of the
// changed data must be marked NeedsRerun even though the producer could
// not complete.
func TestHeldTaskFiresTriggers(t *testing.T) {
	store := NewMemStore()
	tpl := &Template{Name: "h", Steps: []*StepDef{
		{Name: "consumer", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Inputs: []MaturityCheck{{Item: "data"}}},
		{Name: "sibling", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
		{Name: "producer", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Data().Put("data", "v2")
			return 0
		}}, Outputs: []string{"data"}, FinishRequires: []string{"sibling"}},
	}}
	store.Put("data", "v1")
	in, err := Instantiate(tpl, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	// consumer completes against v1 first.
	if err := in.RunTask("consumer", "u"); err != nil {
		t.Fatal(err)
	}
	// producer runs, rewrites data, but holds on the sibling.
	if err := in.RunTask("producer", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["producer"].State != Held {
		t.Fatalf("producer = %v, want Held", in.Tasks["producer"].State)
	}
	if in.Tasks["consumer"].State != NeedsRerun {
		t.Errorf("consumer = %v, want NeedsRerun: the data changed even though the producer is held",
			in.Tasks["consumer"].State)
	}
	if len(in.Notifications) != 1 {
		t.Errorf("notifications = %v, want exactly one", in.Notifications)
	}
	// The held producer completes once the sibling does; it must not have
	// re-run (data would move to v2 again — stamp check below).
	stamp, _ := store.Stamp("data")
	if err := in.RunTask("sibling", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["producer"].State != Done {
		t.Errorf("producer = %v after sibling, want Done", in.Tasks["producer"].State)
	}
	if now, _ := store.Stamp("data"); now != stamp {
		t.Error("promotion re-ran the producer's action")
	}
}

// TestHeldCountTracksHeldTasks: the held count that lets promoteHeld
// return at once must equal the number of Held tasks after every RunTask
// and Reset on the held paths of TestHeldAutoPromotionOrdering,
// TestHeldTaskFiresTriggers and TestRunSummaryBlockedReasons, a Reset of
// a held task included. A count stuck at 0 while a task is held would
// silently skip that task's promotion.
func TestHeldCountTracksHeldTasks(t *testing.T) {
	ok := FuncAction{Fn: func(*Ctx) int { return 0 }}
	check := func(in *Instance, after string) {
		t.Helper()
		n := 0
		for _, task := range in.Tasks {
			if task.State == Held {
				n++
			}
		}
		if in.held != n {
			t.Fatalf("after %s: held count %d, %d tasks Held", after, in.held, n)
		}
	}
	run := func(in *Instance, name string) {
		t.Helper()
		if err := in.RunTask(name, "u"); err != nil {
			t.Fatal(err)
		}
		check(in, "RunTask "+name)
	}
	reset := func(in *Instance, name string) {
		t.Helper()
		if err := in.Reset(name, "u"); err != nil {
			t.Fatal(err)
		}
		check(in, "Reset "+name)
	}

	// The promotion chain, once straight and once with the middle held
	// task reset before the gate completes and run again after.
	chain := &Template{Name: "chain", Steps: []*StepDef{
		{Name: "h1", Action: ok, FinishRequires: []string{"h2"}},
		{Name: "h2", Action: ok, FinishRequires: []string{"h3"}},
		{Name: "h3", Action: ok, FinishRequires: []string{"gate"}},
		{Name: "gate", Action: ok},
	}}
	for _, order := range [][]string{
		{"h1", "h2", "h3", "gate"},
		{"h1", "h2", "h3", "reset h2", "gate", "h2"},
	} {
		in, err := Instantiate(chain, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range order {
			if name, ok := strings.CutPrefix(step, "reset "); ok {
				reset(in, name)
			} else {
				run(in, step)
			}
		}
		if !in.Complete() || in.held != 0 {
			t.Errorf("%v: complete=%v held=%d, want every task Done", order, in.Complete(), in.held)
		}
	}

	// A held producer whose triggers fired, promoted by its sibling.
	store := NewMemStore()
	store.Put("data", "v1")
	trig, err := Instantiate(&Template{Name: "h", Steps: []*StepDef{
		{Name: "consumer", Action: ok, Inputs: []MaturityCheck{{Item: "data"}}},
		{Name: "sibling", Action: ok},
		{Name: "producer", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Data().Put("data", "v2")
			return 0
		}}, Outputs: []string{"data"}, FinishRequires: []string{"sibling"}},
	}}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"consumer", "producer", "sibling", "consumer"} {
		run(trig, name)
	}
	if trig.held != 0 || trig.Tasks["producer"].State != Done {
		t.Errorf("producer = %v, held count %d after its sibling", trig.Tasks["producer"].State, trig.held)
	}

	// A task held on a dependency downstream of a failure stays held at
	// quiescence; resetting it releases the count.
	reasons, err := Instantiate(&Template{Name: "reasons", Steps: []*StepDef{
		{Name: "doomed", Action: ok},
		{Name: "downstream", Action: ok, StartAfter: []string{"doomed"}},
		{Name: "held", Action: ok, FinishRequires: []string{"downstream"}},
		{Name: "immature", Action: ok, Inputs: []MaturityCheck{{Item: "absent", Exists: true}}},
		{Name: "gated", Action: ok, Permissions: []string{"manager"}},
	}}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reasons.Faults = scriptInjector{"doomed/1": {Kind: fault.Crash}}
	// Run's passes, one RunTask at a time; "gated" is the manager's.
	for progressed := true; progressed; {
		progressed = false
		for _, name := range reasons.Ready() {
			if name != "gated" {
				run(reasons, name)
				progressed = true
			}
		}
	}
	if reasons.held != 1 {
		t.Fatalf("held count %d at quiescence, want 1", reasons.held)
	}
	if sum := reasons.RunContinue("engineer"); !strings.Contains(sum.Blocked["held"], "held on finish dependency") {
		t.Errorf("held blocked reason = %q", sum.Blocked["held"])
	}
	check(reasons, "RunContinue")
	reset(reasons, "held")
	if reasons.held != 0 {
		t.Errorf("held count %d after resetting the held task, want 0", reasons.held)
	}
}

// TestExplicitStateLogsActualKind: the final-state log must carry the kind
// of the actual state — CollectMetrics counts failures by scanning for
// Kind == "failed", so mislabelled events undercount.
func TestExplicitStateLogsActualKind(t *testing.T) {
	cases := []struct {
		name     string
		action   Action
		wantKind string
		failures int
	}{
		{"explicit-failed", FuncAction{Fn: func(c *Ctx) int { c.SetStatus(Failed); return 0 }}, "failed", 1},
		{"explicit-skipped", FuncAction{Fn: func(c *Ctx) int { c.SetStatus(Skipped); return 0 }}, "skipped", 0},
		{"explicit-done", FuncAction{Fn: func(c *Ctx) int { c.SetStatus(Done); return 1 }}, "done", 0},
		{"default-failed", FuncAction{Fn: func(*Ctx) int { return 2 }}, "failed", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tpl := &Template{Name: "e", Steps: []*StepDef{{Name: "step", Action: c.action}}}
			in, _ := Instantiate(tpl, nil, nil)
			if err := in.RunTask("step", "u"); err != nil {
				t.Fatal(err)
			}
			var finalKind string
			for _, e := range in.Events {
				if e.Kind != "start" {
					finalKind = e.Kind
				}
			}
			if finalKind != c.wantKind {
				t.Errorf("final event kind = %q, want %q (events: %+v)", finalKind, c.wantKind, in.Events)
			}
			if got := CollectMetrics(in).PerTask["step"].Failures; got != c.failures {
				t.Errorf("failures = %d, want %d", got, c.failures)
			}
		})
	}
}

// TestResetPreservesRework: resetting a NeedsRerun task must not flatten
// it to Pending — the rework marking and its notification linkage survive.
func TestResetPreservesRework(t *testing.T) {
	store := NewMemStore()
	tpl := &Template{Name: "r", Steps: []*StepDef{
		{Name: "rtl", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Data().Put("rtl.v", "v")
			return 0
		}}, Outputs: []string{"rtl.v"}},
		{Name: "lint", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			StartAfter: []string{"rtl"},
			Inputs:     []MaturityCheck{{Item: "rtl.v", Exists: true}}},
	}}
	in, _ := Instantiate(tpl, store, nil)
	if err := in.Run("u"); err != nil {
		t.Fatal(err)
	}
	in.Reset("rtl", "u")
	in.RunTask("rtl", "u")
	if in.Tasks["lint"].State != NeedsRerun {
		t.Fatalf("lint = %v, want NeedsRerun", in.Tasks["lint"].State)
	}
	if err := in.Reset("lint", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["lint"].State != NeedsRerun {
		t.Errorf("Reset flattened NeedsRerun to %v", in.Tasks["lint"].State)
	}
	// A Done task still resets to Pending.
	if err := in.Reset("rtl", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["rtl"].State != Pending {
		t.Errorf("rtl = %v, want Pending", in.Tasks["rtl"].State)
	}
}

// TestRunCollectsErrorsAndContinues: Run must skip-and-continue on
// ErrState — one bad task cannot strand unrelated ready work — and return
// the collected errors joined at quiescence.
func TestRunCollectsErrorsAndContinues(t *testing.T) {
	// Two independent chains; chain A's head fails permanently, chain B
	// completes. A scripted injector fails "a1" on every attempt.
	inj := scriptInjector{
		"a1/1": {Kind: fault.Crash},
		"a1/2": {Kind: fault.Crash},
	}
	tpl := &Template{Name: "multi", Steps: []*StepDef{
		{Name: "a1", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Retry: RetryPolicy{MaxAttempts: 2}},
		{Name: "a2", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, StartAfter: []string{"a1"}},
		{Name: "b1", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
		{Name: "b2", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}, StartAfter: []string{"b1"}},
	}}
	in, _ := Instantiate(tpl, nil, nil)
	in.Faults = inj
	if err := in.Run("u"); err != nil {
		t.Fatalf("permanent failure is a state, not a Run error: %v", err)
	}
	if in.Tasks["a1"].State != Failed {
		t.Errorf("a1 = %v, want Failed", in.Tasks["a1"].State)
	}
	for _, n := range []string{"b1", "b2"} {
		if in.Tasks[n].State != Done {
			t.Errorf("%s = %v, want Done (unrelated work must not be stranded)", n, in.Tasks[n].State)
		}
	}
	if in.Tasks["a2"].State != Pending {
		t.Errorf("a2 = %v, want Pending (downstream of the failure)", in.Tasks["a2"].State)
	}

	sum := in.RunContinue("u")
	if sum.Completed != 2 || len(sum.Failed) != 1 || sum.Failed[0] != "a1" {
		t.Errorf("summary = %v", sum)
	}
	if why := sum.Blocked["a2"]; !strings.Contains(why, `failed task "a1"`) {
		t.Errorf("a2 blocked reason = %q", why)
	}
}

// TestRunJoinsErrStateErrors: genuine ErrState errors raised mid-loop are
// collected and joined, not fatal to the remaining ready tasks.
func TestRunJoinsErrStateErrors(t *testing.T) {
	// "second" becomes unready between Ready() and RunTask: its action
	// consumes the maturity item "gate" that "eater" (alphabetically
	// earlier, so run first in the same sweep) deletes by overwriting.
	store := NewMemStore()
	store.Put("gate", "open")
	tpl := &Template{Name: "j", Steps: []*StepDef{
		{Name: "eater", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Data().Put("gate", "shut")
			return 0
		}}},
		{Name: "second", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Inputs: []MaturityCheck{{Item: "gate", Contains: "open"}}},
		{Name: "third", Action: FuncAction{Fn: func(*Ctx) int { return 0 }}},
	}}
	in, _ := Instantiate(tpl, store, nil)
	err := in.Run("u")
	if !errors.Is(err, ErrState) {
		t.Fatalf("err = %v, want joined ErrState", err)
	}
	if !strings.Contains(err.Error(), `"second" not ready`) {
		t.Errorf("err = %v", err)
	}
	// The error did not strand the rest of the sweep.
	if in.Tasks["third"].State != Done {
		t.Errorf("third = %v, want Done", in.Tasks["third"].State)
	}
}

// TestRetryMetrics: Attempts, Failures, and Duration must all account for
// every attempt — Duration sums ticks across attempts, not just the last.
func TestRetryMetrics(t *testing.T) {
	inj := scriptInjector{
		"work/1": {Kind: fault.Exit, ExitStatus: 3},
		"work/2": {Kind: fault.Timeout, Ticks: 5},
		// attempt 3 clean
	}
	tpl := &Template{Name: "rm", Steps: []*StepDef{
		{Name: "work", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Advance(1) // the tool reports 1 tick of real work
			return 0
		}}, Retry: RetryPolicy{MaxAttempts: 3, Backoff: 2, AttemptTimeout: 10}},
	}}
	in, _ := Instantiate(tpl, nil, nil)
	in.Faults = inj
	if err := in.RunTask("work", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["work"].State != Done {
		t.Fatalf("work = %v, want Done on third attempt", in.Tasks["work"].State)
	}
	tm := CollectMetrics(in).PerTask["work"]
	if tm.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", tm.Attempts)
	}
	if tm.Failures != 2 {
		t.Errorf("failures = %d, want 2 (one per failed attempt)", tm.Failures)
	}
	// Per-attempt running ticks: attempt 1 (exit fault, action ran +
	// Advance(1)) = 2; attempt 2 (hang forced past the 10-tick budget to
	// 11, + finish tick) = 12; attempt 3 = 2.
	if tm.Duration != 16 {
		t.Errorf("duration = %d, want 16 summed across attempts", tm.Duration)
	}
}

// TestAttemptTimeout: an attempt that overruns its tick budget fails with
// the timeout status even though the tool reported success, and the retry
// budget is honoured.
func TestAttemptTimeout(t *testing.T) {
	tpl := &Template{Name: "to", Steps: []*StepDef{
		{Name: "slow", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Advance(20) // always exceeds the budget
			return 0
		}}, Retry: RetryPolicy{MaxAttempts: 2, AttemptTimeout: 5}},
	}}
	in, _ := Instantiate(tpl, nil, nil)
	if err := in.RunTask("slow", "u"); err != nil {
		t.Fatal(err)
	}
	if in.Tasks["slow"].State != Failed {
		t.Errorf("slow = %v, want Failed on timeout", in.Tasks["slow"].State)
	}
	if in.Tasks["slow"].Status != fault.TimeoutStatus {
		t.Errorf("status = %d, want %d", in.Tasks["slow"].Status, fault.TimeoutStatus)
	}
	tm := CollectMetrics(in).PerTask["slow"]
	if tm.Attempts != 2 || tm.Failures != 2 {
		t.Errorf("metrics = %+v, want 2 attempts 2 failures", tm)
	}
}

// TestMetricsMatchInjectedSchedule: with a real seeded injector, the
// collected failure/attempt counts must match the injected schedule
// exactly — every faulted attempt is a failure, every spared attempt a
// success (the test actions never fail on their own).
func TestMetricsMatchInjectedSchedule(t *testing.T) {
	const maxAttempts = 3
	names := make([]string, 12)
	steps := make([]*StepDef, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		steps[i] = &StepDef{
			Name:   names[i],
			Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			Retry:  RetryPolicy{MaxAttempts: maxAttempts, Backoff: 1},
		}
	}
	// Crash and Exit faults only: Corrupt "succeeds", which would decouple
	// faults from failures and ruin the exact accounting this test wants.
	inj := fault.New(21, 0.45).Only(fault.Crash, fault.Exit)
	in, err := Instantiate(&Template{Name: "sched", Steps: steps}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Faults = inj
	sum := in.RunContinue("u")
	if len(sum.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", sum.Errors)
	}
	m := CollectMetrics(in)
	faultedAttempts := 0
	for _, name := range names {
		// Expected: attempts walk the schedule until the first clean draw.
		wantAttempts, wantFailures := 0, 0
		final := Failed
		for a := 1; a <= maxAttempts; a++ {
			wantAttempts++
			if inj.Draw(name, a).Kind == fault.None {
				final = Done
				break
			}
			wantFailures++
		}
		faultedAttempts += wantFailures
		tm := m.PerTask[name]
		if tm.Attempts != wantAttempts || tm.Failures != wantFailures {
			t.Errorf("%s: attempts=%d failures=%d, schedule says attempts=%d failures=%d",
				name, tm.Attempts, tm.Failures, wantAttempts, wantFailures)
		}
		if in.Tasks[name].State != final {
			t.Errorf("%s: state=%v, schedule says %v", name, in.Tasks[name].State, final)
		}
	}
	if faultedAttempts == 0 {
		t.Error("schedule injected nothing at rate 0.45 — test is vacuous")
	}
}

// TestCorruptFaultBlocksDownstream: a Corrupt fault lets the producer
// "succeed" while downstream content checks catch the garbage — and the
// partial-failure summary names the maturity reason.
func TestCorruptFaultBlocksDownstream(t *testing.T) {
	inj := scriptInjector{"synth/1": {Kind: fault.Corrupt}}
	store := NewMemStore()
	tpl := &Template{Name: "c", Steps: []*StepDef{
		{Name: "synth", Action: FuncAction{Fn: func(c *Ctx) int {
			c.Data().Put("netlist", "gates")
			return 0
		}}, Outputs: []string{"netlist"}},
		{Name: "signoff", Action: FuncAction{Fn: func(*Ctx) int { return 0 }},
			StartAfter: []string{"synth"},
			Inputs:     []MaturityCheck{{Item: "netlist", Exists: true, Contains: "gates"}}},
	}}
	in, _ := Instantiate(tpl, store, nil)
	in.Faults = inj
	sum := in.RunContinue("u")
	if in.Tasks["synth"].State != Done {
		t.Fatalf("synth = %v, want Done (corruption is a silent success)", in.Tasks["synth"].State)
	}
	if in.Tasks["signoff"].State != Pending {
		t.Errorf("signoff = %v, want Pending (blocked on corrupt data)", in.Tasks["signoff"].State)
	}
	if why := sum.Blocked["signoff"]; !strings.Contains(why, `"netlist"`) {
		t.Errorf("blocked reason = %q, want a netlist maturity complaint", why)
	}
	if content, _, _ := store.Get("netlist"); content != fault.Corrupted {
		t.Errorf("netlist = %q, want the corruption marker", content)
	}
}

// TestFaultDeterministicAcrossRuns: two instances with the same seed
// produce identical event logs, notifications, and metrics.
func TestFaultDeterministicAcrossRuns(t *testing.T) {
	build := func() *Instance {
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
		return in
	}
	render := func(in *Instance) string {
		var b strings.Builder
		for _, e := range in.Events {
			fmt.Fprintf(&b, "%d %s %s %s\n", e.Tick, e.Task, e.Kind, e.Msg)
		}
		fmt.Fprintf(&b, "notify: %v\nmetrics: %s\n", in.Notifications, CollectMetrics(in).Summary())
		return b.String()
	}
	a, b := build(), build()
	a.RunContinue("u")
	b.RunContinue("u")
	if render(a) != render(b) {
		t.Errorf("same seed diverged:\n--- a\n%s\n--- b\n%s", render(a), render(b))
	}
}

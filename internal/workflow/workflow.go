// Package workflow implements the Section 5 workflow management engine
// with every characteristic the paper says a workflow product suite must
// have: environment independence (actions are opaque callables in any
// "language"), an open language environment, flexible tool management
// (separate process per step or feature calls into a running tool),
// default zero/non-zero status policy with an API override, hierarchical
// design support (per-block sub-flows from one template), open and
// flexible data management behind a small interface, architectural
// separation of workflow and data management, flexible dependency
// management (start and finish dependencies, conditions, permissions,
// reset rules), data-maturity checks, data variables as metadata proxies,
// trigger-based rework notification, and collected metrics for closing the
// process-improvement loop.
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cadinterop/internal/fault"
	"cadinterop/internal/obs"
)

// Errors.
var (
	ErrTemplate   = errors.New("workflow: bad template")
	ErrPermission = errors.New("workflow: permission denied")
	ErrState      = errors.New("workflow: bad state")
)

// TaskState is the lifecycle state of one task instance.
type TaskState uint8

// Task states. Held is the parked state of a task whose action ran (and
// wrote its outputs) but whose finish dependencies are incomplete: it must
// not silently re-run — the side effects already happened — and it
// completes automatically once the dependencies do.
const (
	Pending TaskState = iota
	Ready
	Running
	Done
	Failed
	Skipped
	NeedsRerun
	Held
)

var stateNames = [...]string{"pending", "ready", "running", "done", "failed", "skipped", "needs-rerun", "held"}

// String implements fmt.Stringer.
func (s TaskState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("TaskState(%d)", uint8(s))
}

// Ctx is what an action sees while running: the workflow API through which
// "the tool can exchange (set/get) metadata (task state, data variable
// state and value) with the workflow".
type Ctx struct {
	Task     string
	Block    string
	Instance *Instance
	// explicit, when set by SetStatus, overrides the default zero/non-zero
	// policy for this run.
	explicit *TaskState
}

// Data returns the instance's data store.
func (c *Ctx) Data() DataStore { return c.Instance.Data }

// SetVar sets a workflow data variable (metadata separate from design
// data).
func (c *Ctx) SetVar(name, value string) {
	c.Instance.Vars[name] = value
	c.Instance.noteVar(name, value)
}

// Var reads a data variable.
func (c *Ctx) Var(name string) (string, bool) {
	v, ok := c.Instance.Vars[name]
	return v, ok
}

// Advance consumes n virtual-clock ticks — how a long-running tool reports
// elapsed time to the engine. The per-attempt RetryPolicy timeout is
// enforced against this clock.
func (c *Ctx) Advance(n int) {
	if n > 0 {
		c.Instance.clock += n
		c.Instance.noteTicks(n)
	}
}

// SetStatus explicitly sets the task's completion state, overriding the
// default policy — "support is provided in the API to set the state of a
// step to an explicit value based on whatever criteria is necessary".
func (c *Ctx) SetStatus(s TaskState) {
	c.explicit = &s
}

// Action is a step's work. Implementations may wrap shell commands, RPC
// calls into a running tool, or plain Go functions — the engine only sees
// the returned status, preserving the paper's "any programming language"
// openness.
type Action interface {
	// Run executes the action; the int is the tool's exit status.
	Run(c *Ctx) int
	// Lang describes the implementation language (reporting only).
	Lang() string
}

// FuncAction adapts a Go function.
type FuncAction struct {
	Language string
	Fn       func(c *Ctx) int
}

// Run implements Action.
func (f FuncAction) Run(c *Ctx) int { return f.Fn(c) }

// Lang implements Action.
func (f FuncAction) Lang() string {
	if f.Language == "" {
		return "go"
	}
	return f.Language
}

// MaturityCheck gates a step on data state: "File existence, date/time
// stamps, file contents and other means can be used to determine data
// maturity."
type MaturityCheck struct {
	// Item is the data item name.
	Item string
	// Exists requires the item to exist.
	Exists bool
	// NewerThan, when non-empty, requires Item's stamp to be newer than
	// this other item's stamp.
	NewerThan string
	// Contains, when non-empty, requires the content to contain it.
	Contains string
}

// RetryPolicy bounds how one RunTask invocation handles failing attempts.
// All budgets are in virtual-clock ticks, so retry behaviour is exactly as
// deterministic as the rest of the engine.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per RunTask invocation;
	// values below 1 mean a single attempt (no retry).
	MaxAttempts int
	// Backoff is the virtual-tick wait before the first retry, doubling on
	// each further retry. 0 retries immediately.
	Backoff int
	// AttemptTimeout is the per-attempt tick budget, measured from attempt
	// start to action return on the instance clock (Ctx.Advance and
	// injected hangs consume it). An attempt that exceeds it fails with
	// fault.TimeoutStatus even if the tool reported success. 0 disables
	// the check.
	AttemptTimeout int
}

// Injector is the fault-injection seam: internal/fault's seeded injector
// satisfies it, and tests can script exact failure schedules. Draw must be
// a pure function of (task, attempt) so schedules reproduce across runs
// and worker counts.
type Injector interface {
	Draw(task string, attempt int) fault.Fault
}

// StepDef is one template step.
type StepDef struct {
	Name   string
	Action Action
	// StartAfter lists steps that must be Done before this one is ready —
	// "start dependencies".
	StartAfter []string
	// FinishRequires lists steps that must be Done before this one may
	// complete (it runs but holds) — "finish dependencies".
	FinishRequires []string
	// Condition, when set, must return true for the step to run; false
	// skips it.
	Condition func(in *Instance) bool
	// Permissions lists roles allowed to run/reset the step; empty = any.
	Permissions []string
	// Retry bounds attempts, backoff, and the per-attempt timeout for this
	// step. The zero value keeps the historical single-attempt behaviour.
	Retry RetryPolicy
	// Inputs gate the step on maturity checks.
	Inputs []MaturityCheck
	// Outputs names data items this step produces (for trigger wiring).
	Outputs []string
	// SubFlow expands this step into a per-block copy of another template —
	// "Each design block in the hierarchy can be developed using the same
	// sub-flow template, but the data and process status is kept separate
	// for each block."
	SubFlow *Template
}

// Template is a captured workflow structure.
type Template struct {
	Name  string
	Steps []*StepDef
}

// Validate checks the template graph: unique names, known dependencies, no
// cycles.
func (t *Template) Validate() error {
	names := make(map[string]*StepDef, len(t.Steps))
	for _, s := range t.Steps {
		if s.Name == "" {
			return fmt.Errorf("%w: unnamed step", ErrTemplate)
		}
		if _, dup := names[s.Name]; dup {
			return fmt.Errorf("%w: duplicate step %q", ErrTemplate, s.Name)
		}
		names[s.Name] = s
		if s.Action == nil && s.SubFlow == nil {
			return fmt.Errorf("%w: step %q has neither action nor sub-flow", ErrTemplate, s.Name)
		}
		if s.SubFlow != nil {
			if err := s.SubFlow.Validate(); err != nil {
				return fmt.Errorf("step %q: %w", s.Name, err)
			}
		}
	}
	for _, s := range t.Steps {
		for _, d := range append(append([]string{}, s.StartAfter...), s.FinishRequires...) {
			if _, ok := names[d]; !ok {
				return fmt.Errorf("%w: step %q depends on unknown step %q", ErrTemplate, s.Name, d)
			}
		}
	}
	// Cycle check over StartAfter.
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(n string) error
	visit = func(n string) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("%w: dependency cycle through %q", ErrTemplate, n)
		case 2:
			return nil
		}
		state[n] = 1
		for _, d := range names[n].StartAfter {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[n] = 2
		return nil
	}
	for _, s := range t.Steps {
		if err := visit(s.Name); err != nil {
			return err
		}
	}
	return nil
}

// Task is one runnable occurrence of a step in an instance.
type Task struct {
	Name     string // hierarchical: "step" or "parent/block/step"
	Block    string // owning block for sub-flow tasks ("" at top)
	Def      *StepDef
	State    TaskState
	Attempts int
	// Status is the last action exit status.
	Status int
	// StartedAt/FinishedAt are virtual-clock ticks of the last attempt.
	StartedAt, FinishedAt int
	// RunTicks is the total virtual time spent running across every
	// attempt of the most recent RunTask invocation (backoff waits are
	// excluded — the task was not running).
	RunTicks int
	// heldFinal is the completion state a Held task assumes once its
	// finish dependencies complete.
	heldFinal TaskState
	// span is the task's trace span for the current RunTask invocation
	// (0 when tracing is off); promoteHeld appends its completion there.
	span obs.SpanID
	// startAfter/finishRequires are resolved hierarchical names.
	startAfter     []string
	finishRequires []string
}

// Event is one log entry.
type Event struct {
	Tick int
	Task string
	Kind string // "start", "done", "failed", "skipped", "rerun", "notify", "held", "retry", "fault"
	Msg  string
}

// Instance is a deployed workflow.
type Instance struct {
	Template *Template
	// Tasks maps each task's hierarchical name to the task. Instantiate
	// builds it, and it is fixed once Instantiate returns: the engine
	// schedules from its own name-ordered copy of these tasks.
	Tasks map[string]*Task
	Data  DataStore
	Vars  map[string]string
	// order holds every task of Tasks sorted by name, built once by
	// Instantiate: the order Ready, promoteHeld and RunContinue walk.
	order []*Task
	// held counts the tasks in Held. RunTask raises it when a task parks;
	// a promotion or a Reset lowers it, so promoteHeld costs nothing while
	// no task is held.
	held int
	// triggers: data item -> tasks to mark for rework on change.
	triggers map[string][]string
	// consumers: data item -> tasks with a maturity input on it.
	consumers map[string][]string
	Events    []Event
	clock     int
	// Notifications collects trigger-based user notifications.
	Notifications []string
	// Faults, when non-nil, injects deterministic tool failures into every
	// attempt (see internal/fault). Nil runs fault-free.
	Faults Injector
	// journal, when non-nil, records (or on resume validates) every state
	// transition durably. Attach with AttachJournal; see journal.go.
	journal *FlowJournal

	// tracer is the attached observability recorder (nil = disabled; every
	// use below is a no-op then). Attach with Observe. Metric handles are
	// pre-resolved there so hot paths never pay a registry lookup.
	tracer    *obs.Recorder
	traceRoot obs.SpanID
	mAttempts *obs.Counter
	mRetries  *obs.Counter
	mFaults   *obs.Counter
	mHeld     *obs.Counter
	mPromoted *obs.Counter
	mDone     *obs.Counter
	mFailed   *obs.Counter
	mSkipped  *obs.Counter
	mBackoff  *obs.Counter
	hAttempts *obs.Histogram
}

// Ticks implements obs.Clock over the instance's virtual clock, so an
// attached recorder stamps spans in engine time: trace timestamps are
// the same ticks RunTicks and RetryPolicy budgets are measured in, and
// byte-identical across runs.
func (in *Instance) Ticks() int64 { return int64(in.clock) }

// Observe attaches rec to the instance: per-task spans (with per-attempt
// child spans, retry/backoff and fault events, Held transitions) nest
// under root, and engine counters land in rec's registry. rec should be
// built over this instance's clock — obs.New(in) — for trace ticks to
// align with the event log. Observe(nil, 0) detaches; a detached
// instance pays one nil check per instrumentation point and zero
// allocations (see TestAllocsWorkflowDisabled).
func (in *Instance) Observe(rec *obs.Recorder, root obs.SpanID) {
	in.tracer = rec
	in.traceRoot = root
	reg := rec.Metrics()
	in.mAttempts = reg.Counter("workflow.attempts")
	in.mRetries = reg.Counter("workflow.retries")
	in.mFaults = reg.Counter("workflow.faults")
	in.mHeld = reg.Counter("workflow.held")
	in.mPromoted = reg.Counter("workflow.promoted")
	in.mDone = reg.Counter("workflow.tasks.done")
	in.mFailed = reg.Counter("workflow.tasks.failed")
	in.mSkipped = reg.Counter("workflow.tasks.skipped")
	in.mBackoff = reg.Counter("workflow.backoff.ticks")
	in.hAttempts = reg.Histogram("workflow.attempts.per.task", 1, 2, 3, 5, 8)
}

// Instantiate deploys a template. blocks lists the design hierarchy blocks
// sub-flow steps expand over (may be empty when no step has a SubFlow).
func Instantiate(t *Template, data DataStore, blocks []string) (*Instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if data == nil {
		data = NewMemStore()
	}
	in := &Instance{
		Template:  t,
		Tasks:     make(map[string]*Task),
		Data:      data,
		Vars:      make(map[string]string),
		triggers:  make(map[string][]string),
		consumers: make(map[string][]string),
	}
	for _, s := range t.Steps {
		if s.SubFlow == nil {
			in.addTask(s.Name, "", s, s.StartAfter, s.FinishRequires)
			continue
		}
		if len(blocks) == 0 {
			return nil, fmt.Errorf("%w: step %q has a sub-flow but no blocks were given", ErrTemplate, s.Name)
		}
		// Expand per block: sub-step names are "step/block/substep".
		var blockFinals []string
		for _, blk := range blocks {
			prefix := s.Name + "/" + blk + "/"
			finals := make(map[string]bool)
			for _, sub := range s.SubFlow.Steps {
				finals[prefix+sub.Name] = true
			}
			for _, sub := range s.SubFlow.Steps {
				var deps []string
				// Sub-step deps stay inside the block.
				for _, d := range sub.StartAfter {
					deps = append(deps, prefix+d)
					delete(finals, prefix+d)
				}
				// First sub-steps inherit the parent step's start deps.
				if len(sub.StartAfter) == 0 {
					deps = append(deps, s.StartAfter...)
				}
				var fin []string
				for _, d := range sub.FinishRequires {
					fin = append(fin, prefix+d)
				}
				in.addTask(prefix+sub.Name, blk, sub, deps, fin)
			}
			for f := range finals {
				blockFinals = append(blockFinals, f)
			}
		}
		// A synthetic join task represents the parent step's completion.
		sort.Strings(blockFinals)
		join := &StepDef{Name: s.Name, Action: FuncAction{Fn: func(*Ctx) int { return 0 }}}
		in.addTask(s.Name, "", join, blockFinals, s.FinishRequires)
	}
	// Wire triggers: any task producing item X notifies consumers of X.
	for name, task := range in.Tasks {
		for _, chk := range task.Def.Inputs {
			in.consumers[chk.Item] = append(in.consumers[chk.Item], name)
		}
	}
	for item := range in.consumers {
		sort.Strings(in.consumers[item])
	}
	in.order = make([]*Task, 0, len(in.Tasks))
	for _, task := range in.Tasks {
		in.order = append(in.order, task)
	}
	sort.Slice(in.order, func(i, j int) bool { return in.order[i].Name < in.order[j].Name })
	return in, nil
}

func (in *Instance) addTask(name, block string, def *StepDef, startAfter, finishRequires []string) {
	in.Tasks[name] = &Task{
		Name:           name,
		Block:          block,
		Def:            def,
		State:          Pending,
		startAfter:     append([]string(nil), startAfter...),
		finishRequires: append([]string(nil), finishRequires...),
	}
}

// TaskNames returns all task names sorted, in a new slice.
func (in *Instance) TaskNames() []string {
	out := make([]string, len(in.order))
	for i, t := range in.order {
		out[i] = t.Name
	}
	return out
}

// allowed checks step permissions.
func allowed(def *StepDef, role string) bool {
	if len(def.Permissions) == 0 {
		return true
	}
	for _, p := range def.Permissions {
		if p == role {
			return true
		}
	}
	return false
}

// readyToStart evaluates start dependencies and maturity inputs.
func (in *Instance) readyToStart(t *Task) (bool, string) {
	for _, d := range t.startAfter {
		dep, ok := in.Tasks[d]
		if !ok || dep.State != Done {
			return false, "waiting for " + d
		}
	}
	for _, chk := range t.Def.Inputs {
		if ok, why := in.checkMaturity(chk); !ok {
			return false, why
		}
	}
	return true, ""
}

// checkMaturity evaluates one data maturity condition.
func (in *Instance) checkMaturity(chk MaturityCheck) (bool, string) {
	content, _, exists := in.Data.Get(chk.Item)
	if chk.Exists && !exists {
		return false, fmt.Sprintf("data %q missing", chk.Item)
	}
	if chk.NewerThan != "" {
		a, okA := in.Data.Stamp(chk.Item)
		b, okB := in.Data.Stamp(chk.NewerThan)
		if !okA {
			return false, fmt.Sprintf("data %q missing", chk.Item)
		}
		if okB && a <= b {
			return false, fmt.Sprintf("data %q stale relative to %q", chk.Item, chk.NewerThan)
		}
	}
	if chk.Contains != "" && !strings.Contains(content, chk.Contains) {
		return false, fmt.Sprintf("data %q lacks %q", chk.Item, chk.Contains)
	}
	return true, ""
}

// Ready lists tasks whose start dependencies and inputs are satisfied.
func (in *Instance) Ready() []string {
	var out []string
	for _, t := range in.order {
		if t.State != Pending && t.State != NeedsRerun {
			continue
		}
		if ok, _ := in.readyToStart(t); ok {
			out = append(out, t.Name)
		}
	}
	return out
}

// RunTask executes one task as role. The default policy maps exit status
// zero to Done and non-zero to Failed "without the developer having to
// explicitly set the task state"; Ctx.SetStatus overrides. Failing
// attempts are retried per the step's RetryPolicy with virtual-clock
// backoff. If the finish dependencies are incomplete after a successful
// attempt, the task parks in Held — its action has already run and written
// outputs, so it must not silently re-run — and completes automatically
// once the dependencies do. Triggers fire on output change regardless of
// the completion outcome: downstream consumers of changed data need their
// rework marking whether or not this task managed to complete.
func (in *Instance) RunTask(name, role string) error {
	if err := in.JournalErr(); err != nil {
		return err
	}
	t, ok := in.Tasks[name]
	if !ok {
		return fmt.Errorf("%w: no task %q", ErrState, name)
	}
	if !allowed(t.Def, role) {
		return fmt.Errorf("%w: role %q cannot run %q", ErrPermission, role, name)
	}
	if t.State == Done || t.State == Running || t.State == Held {
		return fmt.Errorf("%w: task %q is %v", ErrState, name, t.State)
	}
	if ok, why := in.readyToStart(t); !ok {
		return fmt.Errorf("%w: task %q not ready: %s", ErrState, name, why)
	}
	if t.Def.Condition != nil && !t.Def.Condition(in) {
		t.State = Skipped
		in.log(name, "skipped", "condition false")
		in.jstate(name, Skipped, 0)
		in.mSkipped.Inc()
		sp := in.tracer.Start(in.traceRoot, name)
		in.tracer.Attr(sp, "state", "skipped")
		in.tracer.End(sp)
		return nil
	}

	t.span = in.tracer.Start(in.traceRoot, name)
	maxAttempts := t.Def.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	before := in.snapshotStamps(t.Def.Outputs)
	t.RunTicks = 0
	attempts := 0
	var status int
	var final TaskState
	for attempt := 1; ; attempt++ {
		status, final = in.runAttempt(t)
		attempts = attempt
		if final != Failed || attempt >= maxAttempts {
			break
		}
		in.mRetries.Inc()
		if b := backoffTicks(t.Def.Retry, attempt); b > 0 {
			in.clock += b
			in.mBackoff.Add(int64(b))
			in.tracer.EventN(t.span, "backoff", int64(b))
			in.log(name, "retry", fmt.Sprintf("backoff %d ticks before attempt %d", b, t.Attempts+1))
			in.jtick(name, b)
		} else {
			in.tracer.EventN(t.span, "backoff", 0)
			in.log(name, "retry", fmt.Sprintf("attempt %d", t.Attempts+1))
			in.jtick(name, 0)
		}
	}
	t.Status = status
	in.hAttempts.Observe(int64(attempts))

	if final == Failed {
		t.State = Failed
		in.jstate(name, Failed, status)
		in.mFailed.Inc()
		in.tracer.Attr(t.span, "state", "failed")
		in.tracer.End(t.span)
		in.fireTriggers(t, before)
		return nil
	}

	// Finish dependencies: the task may not complete before they do. The
	// action has run and its outputs are written, so park — don't reset.
	if d, held := in.incompleteFinishDep(t); held {
		t.State = Held
		t.heldFinal = final
		in.held++
		in.jheld(t)
		in.mHeld.Inc()
		in.tracer.Event(t.span, "held", d)
		in.tracer.Attr(t.span, "state", "held")
		in.log(name, "held", fmt.Sprintf("finish dependency %q incomplete; completion deferred", d))
		in.fireTriggers(t, before)
		return nil
	}

	in.complete(t, final, status)
	in.tracer.Attr(t.span, "state", final.String())
	in.tracer.End(t.span)
	in.fireTriggers(t, before)
	if t.State == Done {
		in.promoteHeld()
	}
	return nil
}

// runAttempt executes one attempt of t — fault injection, the action, and
// the per-attempt timeout check — returning the attempt's exit status and
// the completion state it argues for. Failing attempts log their own
// "failed" event so CollectMetrics counts every failure, not just final
// ones.
func (in *Instance) runAttempt(t *Task) (status int, final TaskState) {
	in.clock++
	t.State = Running
	t.Attempts++
	t.StartedAt = in.clock
	in.mAttempts.Inc()
	asp := in.tracer.Start(t.span, "attempt")
	in.tracer.AttrInt(asp, "n", int64(t.Attempts))
	in.log(t.Name, "start", fmt.Sprintf("attempt %d (%s action)", t.Attempts, t.Def.Action.Lang()))
	in.jattempt(t)

	var f fault.Fault
	if in.Faults != nil {
		f = in.Faults.Draw(t.Name, t.Attempts)
	}
	if f.Kind != fault.None {
		in.mFaults.Inc()
		in.tracer.Event(asp, "fault", f.Kind.String())
	}
	ctx := &Ctx{Task: t.Name, Block: t.Block, Instance: in}
	switch f.Kind {
	case fault.Crash:
		// The tool died before producing anything; the action never ran.
		in.log(t.Name, "fault", fmt.Sprintf("injected crash on attempt %d", t.Attempts))
		status = fault.CrashStatus
	case fault.Timeout:
		// The tool hung; the driver killed it after the hang consumed the
		// attempt's whole tick budget.
		ticks := f.Ticks
		if to := t.Def.Retry.AttemptTimeout; to > 0 && ticks <= to {
			ticks = to + 1
		}
		in.clock += ticks
		in.log(t.Name, "fault", fmt.Sprintf("injected hang of %d ticks on attempt %d", ticks, t.Attempts))
		status = fault.TimeoutStatus
	case fault.Exit:
		// The tool ran to completion — outputs written — but reported
		// failure; the injected status overrides whatever it claimed.
		in.runAction(ctx, t)
		ctx.explicit = nil
		in.log(t.Name, "fault", fmt.Sprintf("injected exit status %d on attempt %d", f.ExitStatus, t.Attempts))
		status = f.ExitStatus
	case fault.Corrupt:
		// The tool "succeeded" but its outputs are garbage — only
		// downstream data-maturity checks can catch this one.
		status = in.runAction(ctx, t)
		n := in.corruptOutputs(t)
		in.log(t.Name, "fault", fmt.Sprintf("injected corruption of %d output item(s) on attempt %d", n, t.Attempts))
	default:
		status = in.runAction(ctx, t)
	}
	elapsed := in.clock - t.StartedAt
	in.clock++
	t.FinishedAt = in.clock
	t.RunTicks += t.FinishedAt - t.StartedAt

	timedOut := false
	if to := t.Def.Retry.AttemptTimeout; to > 0 && elapsed > to {
		timedOut = true
		status = fault.TimeoutStatus
	}
	final = Done
	switch {
	case timedOut:
		final = Failed
		in.log(t.Name, "failed", fmt.Sprintf("status %d: attempt %d exceeded timeout (%d ticks > budget %d)",
			status, t.Attempts, elapsed, t.Def.Retry.AttemptTimeout))
		in.tracer.AttrInt(asp, "status", int64(status))
		in.tracer.End(asp)
		in.jfinish(t, status, final)
		return status, final
	case ctx.explicit != nil:
		final = *ctx.explicit
	case status != 0:
		final = Failed
	}
	if final == Failed {
		in.log(t.Name, "failed", fmt.Sprintf("status %d", status))
	}
	in.tracer.AttrInt(asp, "status", int64(status))
	in.tracer.End(asp)
	in.jfinish(t, status, final)
	return status, final
}

// corruptOutputs replaces every existing output item of t with the
// fault.Corrupted marker: the handoff happened (stamps move, existence
// checks pass) but the content is gone.
func (in *Instance) corruptOutputs(t *Task) int {
	n := 0
	for _, item := range t.Def.Outputs {
		if _, _, ok := in.Data.Get(item); ok {
			in.Data.Put(item, fault.Corrupted)
			n++
		}
	}
	return n
}

// backoffTicks is the virtual wait before retrying after failed attempt
// number `attempt` within one RunTask invocation (exponential doubling).
func backoffTicks(p RetryPolicy, attempt int) int {
	if p.Backoff <= 0 {
		return 0
	}
	return p.Backoff << (attempt - 1)
}

// incompleteFinishDep returns the first finish dependency of t that is not
// Done, in declaration order.
func (in *Instance) incompleteFinishDep(t *Task) (string, bool) {
	for _, d := range t.finishRequires {
		dep, ok := in.Tasks[d]
		if !ok || dep.State != Done {
			return d, true
		}
	}
	return "", false
}

// complete moves t to its final state, logging by the actual state — an
// explicit SetStatus(Skipped) logs "skipped", not "done", so
// CollectMetrics' event-kind scan stays truthful.
func (in *Instance) complete(t *Task, final TaskState, status int) {
	t.State = final
	in.jstate(t.Name, final, status)
	switch final {
	case Done:
		in.mDone.Inc()
	case Skipped:
		in.mSkipped.Inc()
	}
	if final == Done {
		in.log(t.Name, "done", fmt.Sprintf("status %d", status))
		return
	}
	in.log(t.Name, eventKind(final), fmt.Sprintf("explicit state %v", final))
}

// eventKind maps a final task state to its event-log kind.
func eventKind(s TaskState) string {
	switch s {
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	case NeedsRerun:
		return "rerun"
	default:
		return s.String()
	}
}

// promoteHeld completes every Held task whose finish dependencies are now
// satisfied, in name order, to fixpoint (a promotion can satisfy another
// held task's dependency). Their triggers fired when they parked; only the
// completion itself is pending. With no task held it returns at once.
func (in *Instance) promoteHeld() {
	for changed := true; changed && in.held > 0; {
		changed = false
		for _, t := range in.order {
			if t.State != Held {
				continue
			}
			if _, held := in.incompleteFinishDep(t); held {
				continue
			}
			in.held--
			in.complete(t, t.heldFinal, t.Status)
			in.mPromoted.Inc()
			in.tracer.Event(t.span, "promoted", "")
			in.tracer.End(t.span)
			changed = true
		}
	}
}

// snapshotStamps records output item stamps before a run.
func (in *Instance) snapshotStamps(items []string) map[string]int {
	out := make(map[string]int, len(items))
	for _, it := range items {
		if s, ok := in.Data.Stamp(it); ok {
			out[it] = s
		} else {
			out[it] = -1
		}
	}
	return out
}

// fireTriggers marks downstream consumers of changed outputs for rework —
// "Trigger-based procedures provide the ability to notify the user when
// something has changed in the design that does, or might, require them to
// rework some of their steps."
func (in *Instance) fireTriggers(t *Task, before map[string]int) {
	for _, item := range t.Def.Outputs {
		now, ok := in.Data.Stamp(item)
		if !ok || now == before[item] {
			continue
		}
		for _, consumer := range in.consumers[item] {
			ct := in.Tasks[consumer]
			if ct.State == Done {
				ct.State = NeedsRerun
				in.jstate(consumer, NeedsRerun, 0)
				msg := fmt.Sprintf("data %q changed by %q: task %q needs rerun", item, t.Name, consumer)
				in.Notifications = append(in.Notifications, msg)
				in.log(consumer, "rerun", msg)
			}
		}
	}
}

// Reset returns a completed or failed task to pending — "When can I reset
// and rerun this step?" is a permission-guarded decision. A NeedsRerun
// task keeps its rework marking: it is already pending re-execution, and
// flattening it to plain Pending would discard the trigger linkage its
// notification recorded.
func (in *Instance) Reset(name, role string) error {
	t, ok := in.Tasks[name]
	if !ok {
		return fmt.Errorf("%w: no task %q", ErrState, name)
	}
	if !allowed(t.Def, role) {
		return fmt.Errorf("%w: role %q cannot reset %q", ErrPermission, role, name)
	}
	if t.State == Running {
		return fmt.Errorf("%w: task %q is running", ErrState, name)
	}
	if t.State == NeedsRerun {
		in.log(name, "rerun", "reset by "+role+" (rework marking preserved)")
		in.jstate(name, NeedsRerun, 0)
		return nil
	}
	msg := "reset by " + role
	if t.State == Held {
		// The parked run's span waits for a promotion that will not come:
		// end it here, so a rerun opens a span of its own.
		in.held--
		in.tracer.Event(t.span, "rerun", msg)
		in.tracer.End(t.span)
		t.span = 0
	}
	t.State = Pending
	t.heldFinal = Pending
	in.log(name, "rerun", msg)
	in.jstate(name, Pending, 0)
	return nil
}

// Run drives the instance to quiescence: repeatedly runs every ready task
// as role until nothing is ready or progress stops. Failed tasks are not
// retried automatically (per-attempt retry is the RetryPolicy's job). A
// task that errors with ErrState is skipped, not fatal — one bad task must
// not strand unrelated ready work — and all collected errors are returned
// joined once the instance is quiescent.
func (in *Instance) Run(role string) error {
	var errs []error
	for {
		ready := in.Ready()
		progressed := false
		for _, name := range ready {
			t := in.Tasks[name]
			if t.State != Pending && t.State != NeedsRerun {
				continue
			}
			err := in.RunTask(name, role)
			if jerr := in.JournalErr(); jerr != nil {
				// Journal divergence invalidates the whole run: stop
				// immediately instead of driving more tasks from suspect
				// state.
				errs = append(errs, jerr)
				return errors.Join(errs...)
			}
			switch {
			case err == nil:
				progressed = true
			case errors.Is(err, ErrPermission):
				// someone else's step
			default:
				errs = append(errs, err)
			}
		}
		if !progressed {
			return errors.Join(errs...)
		}
	}
}

// RunSummary is the partial-failure report of a ContinueOnError run: what
// completed, what permanently failed, and why everything else could not
// run.
type RunSummary struct {
	// Completed counts tasks that are Done or Skipped at quiescence.
	Completed int
	// Tasks is the instance's task count, for rate reporting.
	Tasks int
	// Failed lists permanently failed tasks (retry budgets exhausted),
	// sorted.
	Failed []string
	// Blocked maps every task that could not reach a final state to the
	// reason, e.g. a failed ancestor, an unmet maturity check, or an
	// incomplete finish dependency.
	Blocked map[string]string
	// Errors are the ErrState errors the quiescence loop collected.
	Errors []error
}

// String renders a one-line digest.
func (s *RunSummary) String() string {
	return fmt.Sprintf("completed=%d/%d failed=%d blocked=%d errors=%d",
		s.Completed, s.Tasks, len(s.Failed), len(s.Blocked), len(s.Errors))
}

// RunContinue is the ContinueOnError run mode: it drives all unblocked
// work to quiescence — a faulted task costs only its own downstream, never
// the run — and reports a partial-failure summary instead of aborting on
// the first ErrState.
func (in *Instance) RunContinue(role string) *RunSummary {
	err := in.Run(role)
	s := &RunSummary{Blocked: make(map[string]string), Tasks: len(in.Tasks)}
	if err != nil {
		if joined, ok := err.(interface{ Unwrap() []error }); ok {
			s.Errors = joined.Unwrap()
		} else {
			s.Errors = []error{err}
		}
	}
	for _, t := range in.order {
		switch t.State {
		case Done, Skipped:
			s.Completed++
		case Failed:
			s.Failed = append(s.Failed, t.Name)
		case Held:
			d, _ := in.incompleteFinishDep(t)
			s.Blocked[t.Name] = fmt.Sprintf("held on finish dependency %q", d)
		default:
			s.Blocked[t.Name] = in.blockedReason(t)
		}
	}
	return s
}

// blockedReason explains why a pending task did not run: a permanently
// failed ancestor if there is one (first in deterministic dependency
// order), otherwise the start-readiness verdict.
func (in *Instance) blockedReason(t *Task) string {
	if f := in.failedAncestor(t.Name, make(map[string]bool)); f != "" {
		return fmt.Sprintf("downstream of failed task %q", f)
	}
	if ok, why := in.readyToStart(t); !ok {
		return why
	}
	return "ready but not run (permission-gated for this role)"
}

// failedAncestor walks start dependencies depth-first in declaration order
// and returns the first Failed task found ("" if none).
func (in *Instance) failedAncestor(name string, seen map[string]bool) string {
	t := in.Tasks[name]
	if t == nil {
		return ""
	}
	for _, d := range t.startAfter {
		if seen[d] {
			continue
		}
		seen[d] = true
		dep := in.Tasks[d]
		if dep == nil {
			continue
		}
		if dep.State == Failed {
			return d
		}
		if f := in.failedAncestor(d, seen); f != "" {
			return f
		}
	}
	return ""
}

// Status summarizes task states.
func (in *Instance) Status() map[TaskState]int {
	out := make(map[TaskState]int)
	for _, t := range in.Tasks {
		out[t.State]++
	}
	return out
}

// Complete reports whether every task is Done or Skipped.
func (in *Instance) Complete() bool {
	for _, t := range in.Tasks {
		if t.State != Done && t.State != Skipped {
			return false
		}
	}
	return true
}

func (in *Instance) log(task, kind, msg string) {
	in.Events = append(in.Events, Event{Tick: in.clock, Task: task, Kind: kind, Msg: msg})
}

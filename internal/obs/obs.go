// Package obs is the deterministic observability layer: span-based
// tracing plus a metrics registry, both driven by virtual clocks rather
// than the wall clock. The paper's Section 6 methodology only works if
// every handoff in a flow is *visible* — task graphs and scenarios are
// analyzable exactly to the extent the system records where data,
// control, time, and failures actually went. This package makes that
// record a reproducible experiment artifact instead of a log: every
// tick stamp comes from a caller-supplied virtual clock (the workflow
// engine's instance clock, the simulator's event time, or a per-context
// StepClock), so two runs with the same seed — at any worker count —
// emit byte-identical traces, and golden-trace tests can diff them.
//
// The second contract is near-zero overhead when disabled. A nil
// *Recorder, nil *Counter, nil *Gauge, and nil *Histogram are all valid
// receivers whose methods return immediately, so instrumented hot paths
// pay one nil check and zero allocations when observability is off
// (guarded by AllocsPerRun tests, DESIGN.md §5f). Call sites must pass
// plain values — no fmt.Sprintf on the disabled path — which is why the
// API takes ints and static strings instead of formatted messages.
//
// Concurrency: a Recorder's span API is single-writer — one goroutine
// at a time, matching the engines it instruments (the workflow engine
// and sim kernel are single-threaded; parallel fan-outs give each item
// a private child Recorder and Merge them in canonical index order, the
// same commit-in-order discipline the router uses, DESIGN.md §5a).
// Metric instruments are atomic and may be hammered from any number of
// goroutines; counter and histogram totals are order-independent, so
// they too are deterministic for a fixed workload.
package obs

import (
	"math"
	"sync"
)

// Clock supplies virtual time. Implementations must be cheap: Ticks is
// called on every span start/end and event.
type Clock interface {
	Ticks() int64
}

// StepClock is the deterministic fallback clock for contexts that have
// no virtual time of their own (the backplane fan-out, the experiment
// harness): every Ticks call returns the next integer, so stamps encode
// causal order — which IS deterministic in single-writer use — rather
// than duration.
type StepClock struct {
	t int64
}

// Ticks implements Clock.
func (c *StepClock) Ticks() int64 {
	c.t++
	return c.t
}

// ManualClock is a test clock pinned to an explicit time.
type ManualClock struct {
	T int64
}

// Ticks implements Clock.
func (c *ManualClock) Ticks() int64 { return c.T }

// SpanID identifies a recorded span. The zero SpanID is the implicit
// root: Start(0, ...) begins a top-level span, and every method
// tolerates 0 (and any id from a nil Recorder) as a no-op target.
type SpanID int32

// Attr is one key/value annotation on a span. Val is either a string
// (IsInt false) or an integer rendered at export time (IsInt true) —
// keeping integers unformatted until export is what keeps AttrInt
// allocation-free on the recording path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// SpanEvent is one point-in-time annotation inside a span.
type SpanEvent struct {
	Tick int64
	Kind string
	Msg  string
	// Val carries EventN's integer payload (rendered at export).
	Val    int64
	HasVal bool
}

// span is one recorded interval. ended reports whether it has closed;
// until then end holds -1, which is only what exporters print for an
// open span — ticks may legally be negative, so no tick value can mark
// "open". ceil is the latest tick this span may occupy: math.MaxInt64
// normally, or the end of the nearest already-ended ancestor — a span
// opened after its parent closed is pinned (degenerate) at the parent's
// end so the tree can never violate nesting.
type span struct {
	name   string
	parent SpanID
	ended  bool // sits in parent's padding, so a span is no larger
	start  int64
	end    int64
	ceil   int64
	attrs  []Attr
	events []SpanEvent
}

// Recorder accumulates spans against a virtual clock. The nil Recorder
// is the disabled layer: every method no-ops.
type Recorder struct {
	mu    sync.Mutex
	clock Clock
	spans []span
	reg   *Registry
	// maxTick is the latest tick stamped anywhere; Merge rebases child
	// traces just past it so merged spans lay out sequentially.
	maxTick int64
}

// New returns a Recorder stamping spans from clock (a fresh StepClock
// when nil), with an empty metrics registry attached.
func New(clock Clock) *Recorder {
	if clock == nil {
		clock = &StepClock{}
	}
	return &Recorder{clock: clock, reg: NewRegistry()}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the attached registry (nil when the recorder is nil,
// which every instrument accepts).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// stamp tracks the latest tick seen, for Merge's rebasing cursor.
func (r *Recorder) stamp(t int64) {
	if t > r.maxTick && t < math.MaxInt64 {
		r.maxTick = t
	}
}

// Start opens a span under parent (0 = top level) and returns its id.
// The start tick is clamped into the parent's interval — up to the
// parent's start, and (if the parent already ended) down to its end —
// so nesting holds by construction even against a clock that stands
// still, runs backwards, or keeps ticking after the parent closed.
func (r *Recorder) Start(parent SpanID, name string) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.clock.Ticks()
	ceil := int64(math.MaxInt64)
	if p := r.spanAt(parent); p != nil {
		ceil = p.ceil
		if p.ended && p.end < ceil {
			ceil = p.end
		}
		if t < p.start {
			t = p.start
		}
	}
	if t > ceil {
		t = ceil
	}
	r.stamp(t)
	r.spans = append(r.spans, span{name: name, parent: parent, start: t, end: -1, ceil: ceil})
	return SpanID(len(r.spans))
}

// End closes a span at the current tick. Open descendants close first,
// the end covers every descendant's end, and it is clamped to the
// span's [start, ceil] window — so the recorded tree always satisfies
// Check: no end-before-start, children inside their parents.
func (r *Recorder) End(id SpanID) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(id, r.clock.Ticks())
}

func (r *Recorder) endLocked(id SpanID, t int64) {
	s := r.spanAt(id)
	if s == nil || s.ended {
		return
	}
	// Descendants have larger ids (they started later); close open ones
	// first, deepest first.
	for i := len(r.spans); i > int(id); i-- {
		d := &r.spans[i-1]
		if !d.ended && r.isAncestor(id, SpanID(i)) {
			r.endLocked(SpanID(i), t)
		}
	}
	end := t
	if end < s.start {
		end = s.start
	}
	if end > s.ceil {
		end = s.ceil
	}
	// Cover descendants (their ends respect their ceilings, which never
	// exceed this span's).
	for i := int(id) + 1; i <= len(r.spans); i++ {
		if d := &r.spans[i-1]; d.end > end && r.isAncestor(id, SpanID(i)) {
			end = d.end
		}
	}
	s.end = end
	s.ended = true
	r.stamp(end)
}

// isAncestor reports whether anc is on id's parent chain.
func (r *Recorder) isAncestor(anc, id SpanID) bool {
	for p := r.spans[id-1].parent; p > 0; p = r.spans[p-1].parent {
		if p == anc {
			return true
		}
	}
	return false
}

// spanAt returns the span for id, nil for 0 / out of range.
func (r *Recorder) spanAt(id SpanID) *span {
	if id <= 0 || int(id) > len(r.spans) {
		return nil
	}
	return &r.spans[id-1]
}

// Attr annotates a span with a string value.
func (r *Recorder) Attr(id SpanID, key, val string) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.spanAt(id); s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Str: val})
	}
}

// AttrInt annotates a span with an integer value without formatting it.
func (r *Recorder) AttrInt(id SpanID, key string, v int64) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.spanAt(id); s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Int: v, IsInt: true})
	}
}

// Event records a point-in-time annotation at the current tick.
func (r *Recorder) Event(id SpanID, kind, msg string) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.spanAt(id); s != nil {
		t := r.eventTick(s)
		s.events = append(s.events, SpanEvent{Tick: t, Kind: kind, Msg: msg})
	}
}

// eventTick reads the clock clamped into s's [start, ceil] window.
func (r *Recorder) eventTick(s *span) int64 {
	t := r.clock.Ticks()
	if t < s.start {
		t = s.start
	}
	if t > s.ceil {
		t = s.ceil
	}
	r.stamp(t)
	return t
}

// EventN records a point-in-time annotation carrying an integer payload
// (rendered at export; no formatting on the recording path).
func (r *Recorder) EventN(id SpanID, kind string, v int64) {
	if r == nil || id <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.spanAt(id); s != nil {
		t := r.eventTick(s)
		s.events = append(s.events, SpanEvent{Tick: t, Kind: kind, Val: v, HasVal: true})
	}
}

// Close ends every open span at the current tick, readying the recorder
// for export.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.clock.Ticks()
	for i := range r.spans {
		if !r.spans[i].ended {
			r.endLocked(SpanID(i+1), t)
		}
	}
}

// Merge appends every span of child under parent, in the child's
// creation order: top-level child spans are reparented to parent and
// all ids are offset. Each recorder's clock is its own virtual time
// domain, so the child's ticks are rebased to start just past the
// latest tick the parent has stamped — successive merges lay children
// out sequentially, and the parent span (still open) covers them when
// it ends. Fan-outs use this to collect per-item child recorders in
// canonical index order, which is what makes the merged trace
// independent of worker count. The child's metrics are NOT merged —
// share one Registry across the fan-out instead (its instruments are
// atomic and order-independent).
func (r *Recorder) Merge(parent SpanID, child *Recorder) {
	if r == nil || child == nil || r == child {
		return
	}
	child.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	child.mu.Lock()
	defer child.mu.Unlock()
	if len(child.spans) == 0 {
		return
	}
	base := r.maxTick
	ceil := int64(math.MaxInt64)
	if p := r.spanAt(parent); p != nil {
		if p.start > base {
			base = p.start
		}
		ceil = p.ceil
		if p.ended && p.end < ceil {
			ceil = p.end
		}
	}
	childMin := child.spans[0].start
	for _, s := range child.spans {
		if s.start < childMin {
			childMin = s.start
		}
	}
	delta := base + 1 - childMin
	off := SpanID(len(r.spans))
	for _, s := range child.spans {
		if s.parent == 0 {
			s.parent = parent
		} else {
			s.parent += off
		}
		s.start = clampTick(s.start+delta, ceil)
		s.end = clampTick(s.end+delta, ceil)
		if s.ceil != math.MaxInt64 {
			s.ceil += delta
		}
		if s.ceil > ceil {
			s.ceil = ceil
		}
		for i := range s.events {
			s.events[i].Tick = clampTick(s.events[i].Tick+delta, ceil)
		}
		r.stamp(s.end)
		r.spans = append(r.spans, s)
	}
}

func clampTick(t, ceil int64) int64 {
	if t > ceil {
		return ceil
	}
	return t
}

// SpanCount reports how many spans have been recorded.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

package backplane

import (
	"bytes"
	"strings"
	"testing"

	"cadinterop/internal/obs"
	"cadinterop/internal/par"
)

// renderObserved runs the full tool fan-out with a recorder attached and
// returns the rendered span tree plus the results.
func renderObserved(t *testing.T, workers int, roundTrip bool) (string, []*FlowResult) {
	t.Helper()
	rec := obs.New(nil)
	results, err := RunFlowsObserved(gen(t), AllTools(), 5, roundTrip, rec, par.Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("workers=%d: span invariants: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), results
}

// TestObservedTraceIdenticalAcrossWorkers: each tool records into a
// private child recorder merged in tool order, so the span tree must be
// byte-identical at every worker count.
func TestObservedTraceIdenticalAcrossWorkers(t *testing.T) {
	ref, refRes := renderObserved(t, 1, false)
	if ref == "" {
		t.Fatal("empty trace")
	}
	for _, tool := range AllTools() {
		if !strings.Contains(ref, tool.Name) {
			t.Errorf("trace has no span for %s:\n%s", tool.Name, ref)
		}
	}
	for _, stage := range []string{"translate", "place", "route", "audit"} {
		if !strings.Contains(ref, stage) {
			t.Errorf("trace has no %s stage span:\n%s", stage, ref)
		}
	}
	for _, workers := range []int{2, 8} {
		got, res := renderObserved(t, workers, false)
		if got != ref {
			t.Errorf("workers=%d trace diverges from serial:\n--- serial\n%s\n--- workers=%d\n%s",
				workers, ref, workers, got)
		}
		if len(res) != len(refRes) {
			t.Errorf("workers=%d: %d results, want %d", workers, len(res), len(refRes))
		}
	}
}

// TestObservedTraceRoundTripGate: the integrity-gated variant traces the
// same deterministic tree too, and carries per-flow QoR attributes.
func TestObservedTraceRoundTripGate(t *testing.T) {
	ref, _ := renderObserved(t, 1, true)
	got, _ := renderObserved(t, 4, true)
	if got != ref {
		t.Errorf("round-trip-gated trace diverges across worker counts:\n--- serial\n%s\n--- par\n%s", ref, got)
	}
	if !strings.Contains(ref, "hpwl=") || !strings.Contains(ref, "wirelen=") {
		t.Errorf("trace is missing QoR attributes:\n%s", ref)
	}
}

// TestObservedMetricsRecorded: loss accounting and flow verdicts land as
// counters, and every router counter is deterministic: two renders at one
// worker and one at eight agree line for line, because every flow routes
// serially and no counter tracks scheduling or pool reuse.
func TestObservedMetricsRecorded(t *testing.T) {
	render := func(workers int) string {
		rec := obs.New(nil)
		if _, err := RunFlowsObserved(gen(t), AllTools(), 5, false, rec, par.Workers(workers)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.Metrics().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	routeLines := func(metrics string) string {
		var out []string
		for _, l := range strings.Split(metrics, "\n") {
			if strings.Contains(l, " route.") {
				out = append(out, l)
			}
		}
		return strings.Join(out, "\n")
	}
	seq := render(1)
	if !strings.Contains(seq, "counter backplane.flows.ok 3") {
		t.Errorf("metrics missing flow verdicts:\n%s", seq)
	}
	if !strings.Contains(seq, "backplane.loss.dropped") || !strings.Contains(seq, "backplane.loss.degraded") {
		t.Errorf("metrics missing loss accounting:\n%s", seq)
	}
	want := routeLines(seq)
	if want == "" {
		t.Fatalf("metrics carry no route counters:\n%s", seq)
	}
	for _, gone := range []string{" route.spec.", " route.shard."} {
		if strings.Contains(seq, gone) {
			t.Errorf("workers=1: metrics still carry %q counters:\n%s", gone, seq)
		}
	}
	if got := routeLines(render(1)); got != want {
		t.Errorf("route metrics differ between two serial runs:\n--- first\n%s\n--- second\n%s", want, got)
	}
	if got := routeLines(render(8)); got != want {
		t.Errorf("route metrics depend on the worker count:\n--- workers=1\n%s\n--- workers=8\n%s", want, got)
	}
}

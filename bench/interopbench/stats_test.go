package main

import (
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(vs, n=4).
	for _, tc := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.5, 1.25, 9, 3, 7.75}, 2.125, 5.5, 8.375},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}} {
		if got := percentile(ds, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// steadyProbes returns a speedo whose probes, every probeEvery for d,
// take refProbe times the slowdown slow(t) gives at their start.
func steadyProbes(d time.Duration, slow func(t time.Duration) float64) *speedo {
	sp := newSpeedo(time.Now())
	for t := time.Duration(0); t < d; t += probeEvery {
		sp.at = append(sp.at, t)
		sp.took = append(sp.took, time.Duration(slow(t)*float64(refProbe)))
	}
	return sp
}

func TestSlowdownIsLocal(t *testing.T) {
	sp := steadyProbes(4*time.Second, func(t time.Duration) float64 {
		if t >= 2*time.Second {
			return 2
		}
		return 1
	})
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{{0, 1}, {time.Second, 1}, {3 * time.Second, 2}, {5 * time.Second, 2}} {
		if got := sp.slowdown(tc.at); got != tc.want {
			t.Errorf("slowdown(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := newSpeedo(time.Now()).slowdown(time.Second); got != 1 {
		t.Errorf("slowdown without probes = %v, want 1", got)
	}
}

// TestPhaseFiguresDivideOutTheSlowdown runs a closed-loop phase of 10 ms
// requests and 5 ms of daemon CPU per request on a machine running at
// half its reference speed, and expects every figure to read as at full
// speed.
func TestPhaseFiguresDivideOutTheSlowdown(t *testing.T) {
	const d = 3 * time.Second
	sp := steadyProbes(d, func(time.Duration) float64 { return 2 })
	var ss []sample
	u := &usage{at: []time.Duration{0}, cpu: []time.Duration{0}}
	for k := 1; k <= 150; k++ {
		ss = append(ss, sample{done: time.Duration(k) * 20 * time.Millisecond, latency: 20 * time.Millisecond})
		u.at = append(u.at, time.Duration(k)*20*time.Millisecond)
		u.cpu = append(u.cpu, time.Duration(k)*10*time.Millisecond)
	}
	if got, want := phaseFigures(ss, u, sp, false), (phaseStats{rps: 100, cpuPerReq: 5, p50: 10, p90: 10, p99: 10}); got != want {
		t.Errorf("closed loop: %+v, want %+v", got, want)
	}
	if got := phaseFigures(ss, u, sp, true).rps; got != 50 {
		t.Errorf("open loop rate = %v, want 50, the completions up to the last", got)
	}
}

func TestClassify(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		want           string
	}{
		{"A/A", steady, steady, true, 0.1, unchanged},
		{"gain in every pair", steady, faster, true, 0.1, improved},
		{"gain, higher is better", faster, steady, false, 0.1, improved},
		{"gain with too few pairs", steady[:9], faster[:9], true, 0.1, unchanged},
		{"worse beyond the bound", faster, steady, true, 0.1, regressed},
		{"worse within the bound", faster, steady, true, 0.2, unchanged},
		{"gain inside the parent's spread",
			[]float64{80, 120, 80, 120, 80, 120, 80, 120, 80, 120},
			[]float64{79, 119, 79, 119, 79, 119, 79, 119, 79, 119}, true, 0.5, unchanged},
		{"parent spread wider than the bound",
			[]float64{80, 120, 80, 120, 80, 120, 80, 120, 80, 120},
			[]float64{119, 81, 119, 81, 119, 81, 119, 81, 119, 81}, true, 0.1, unresolved},
		{"wide spread, but every change run better",
			[]float64{80, 120, 80, 120, 80, 120, 80, 120, 80, 120},
			[]float64{70, 75, 70, 75, 70, 75, 70, 75, 70, 75}, true, 0.1, unchanged},
		{"no runs", nil, nil, true, 0.1, unresolved},
	} {
		got, _, _ := classify(tc.parent, tc.change, tc.lowerBetter, tc.bound)
		if got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

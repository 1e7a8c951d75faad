package obs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomTrace drives a recorder through an arbitrary op sequence against
// an arbitrarily-moving manual clock and returns it closed. The ops are
// intentionally hostile: ends out of order, double ends, events on
// random spans, clock jumping backwards.
func randomTrace(rng *rand.Rand) *Recorder {
	clk := &ManualClock{T: rng.Int63n(100)}
	r := New(clk)
	var open []SpanID
	nOps := 1 + rng.Intn(60)
	for i := 0; i < nOps; i++ {
		clk.T += rng.Int63n(7) - 2 // may move backwards
		switch op := rng.Intn(10); {
		case op < 4: // start, under a random open span or the root
			parent := SpanID(0)
			if len(open) > 0 && rng.Intn(3) > 0 {
				parent = open[rng.Intn(len(open))]
			}
			open = append(open, r.Start(parent, "s"))
		case op < 7 && len(open) > 0: // end a random span (maybe already ended)
			j := rng.Intn(len(open))
			r.End(open[j])
			if rng.Intn(2) == 0 {
				open = append(open[:j], open[j+1:]...)
			}
		case op < 9 && len(open) > 0:
			id := open[rng.Intn(len(open))]
			if rng.Intn(2) == 0 {
				r.Event(id, "e", "m")
			} else {
				r.EventN(id, "n", rng.Int63n(100))
			}
		default:
			if len(open) > 0 {
				r.AttrInt(open[rng.Intn(len(open))], "k", rng.Int63n(100))
			}
		}
	}
	r.Close()
	return r
}

// negativeTickSeeds drive randomTrace's clock below zero before spans
// close. They once left such spans reading as still open, when "open"
// was encoded as a negative end tick; both quick tests replay them
// before their random sweep.
var negativeTickSeeds = []int64{5057721981579251202, 3802840967619482397, 4402053868016804061}

// TestQuickSpanInvariants: whatever the op/clock sequence, the recorded
// tree is closed, has no end-before-start, and nests children strictly
// inside their parents (the Check oracle).
func TestQuickSpanInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := randomTrace(rand.New(rand.NewSource(seed)))
		if err := r.Check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	for _, seed := range negativeTickSeeds {
		if !f(seed) {
			t.Errorf("seed %d: span invariants broken", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergePreservesInvariants: merging arbitrary child traces
// under an arbitrary parent span keeps the tree well-formed.
func TestQuickMergePreservesInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := New(&ManualClock{T: rng.Int63n(50)})
		root := parent.Start(0, "root")
		for i := 0; i < 1+rng.Intn(4); i++ {
			parent.Merge(root, randomTrace(rng))
		}
		parent.Close()
		if err := parent.Check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	for _, seed := range negativeTickSeeds {
		if !f(seed) {
			t.Errorf("seed %d: merged span invariants broken", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickHistogramConservation: bucket counts always sum to the
// observation count, and the sum matches, for arbitrary bounds/values.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bounds := make([]int64, rng.Intn(6))
		for i := range bounds {
			bounds[i] = rng.Int63n(1000) - 500
		}
		h := NewRegistry().Histogram("h", bounds...)
		n := rng.Intn(200)
		var wantSum int64
		for i := 0; i < n; i++ {
			v := rng.Int63n(2000) - 1000
			wantSum += v
			h.Observe(v)
		}
		var total int64
		for _, c := range h.Buckets() {
			total += c
		}
		return total == int64(n) && h.Count() == int64(n) && h.Sum() == wantSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickHistogramBucketPlacement: each observation lands in exactly
// the first bucket whose bound admits it.
func TestQuickHistogramBucketPlacement(t *testing.T) {
	f := func(v int64) bool {
		v %= 100
		h := NewRegistry().Histogram("h", -10, 0, 50)
		h.Observe(v)
		b := h.Buckets()
		want := 3 // overflow
		switch {
		case v <= -10:
			want = 0
		case v <= 0:
			want = 1
		case v <= 50:
			want = 2
		}
		for i, c := range b {
			if (i == want) != (c == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

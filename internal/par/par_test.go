package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		out, err := Map(100, func(i int) (int, error) { return i * i, nil }, Workers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len=%d", w, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", w, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(int) (string, error) { return "x", nil })
	if err != nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestLowestIndexError(t *testing.T) {
	// Several indices fail; every worker count must report index 3's error,
	// the one a sequential loop hits first.
	for _, w := range []int{1, 2, 8} {
		_, err := Map(50, func(i int) (int, error) {
			if i == 3 || i == 17 || i == 40 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		}, Workers(w))
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d: err=%v", w, err)
		}
	}
}

func TestSequentialEarlyExit(t *testing.T) {
	// Workers(1) must never evaluate indices after the first failure.
	var calls atomic.Int64
	boom := errors.New("boom")
	err := ForEach(10, func(i int) error {
		calls.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	}, Workers(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls=%d, want 3", calls.Load())
	}
}

func TestParallelStopsClaiming(t *testing.T) {
	// After a failure, workers stop claiming new work: far fewer than n
	// calls should happen when index 0 fails immediately.
	var calls atomic.Int64
	_ = ForEach(100000, func(i int) error {
		calls.Add(1)
		return errors.New("always")
	}, Workers(4))
	if c := calls.Load(); c > 1000 {
		t.Fatalf("calls=%d, expected early stop", c)
	}
}

func TestForEachParallelRuns(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	// With enough blocking tasks, at least two goroutines must be live at
	// once: use a rendezvous of size 2.
	gate := make(chan struct{})
	err := ForEach(2, func(i int) error {
		select {
		case gate <- struct{}{}:
		case <-gate:
		}
		return nil
	}, Workers(2))
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapAllRunsEveryIndex(t *testing.T) {
	// Unlike Map, failures must not stop later indices from running, at any
	// worker count.
	for _, w := range []int{1, 2, 8} {
		var calls atomic.Int64
		out, errs := MapAll(50, func(i int) (int, error) {
			calls.Add(1)
			if i%7 == 3 {
				return -1, fmt.Errorf("fail at %d", i)
			}
			return i * 2, nil
		}, Workers(w))
		if calls.Load() != 50 {
			t.Fatalf("workers=%d: calls=%d, want all 50", w, calls.Load())
		}
		if len(out) != 50 || len(errs) != 50 {
			t.Fatalf("workers=%d: len(out)=%d len(errs)=%d", w, len(out), len(errs))
		}
		for i := 0; i < 50; i++ {
			if i%7 == 3 {
				if errs[i] == nil || errs[i].Error() != fmt.Sprintf("fail at %d", i) {
					t.Fatalf("workers=%d: errs[%d]=%v", w, i, errs[i])
				}
			} else if errs[i] != nil || out[i] != i*2 {
				t.Fatalf("workers=%d: out[%d]=%d errs[%d]=%v", w, i, out[i], i, errs[i])
			}
		}
	}
}

func TestMapAllCleanReturnsNilErrs(t *testing.T) {
	out, errs := MapAll(10, func(i int) (int, error) { return i, nil }, Workers(4))
	if errs != nil {
		t.Fatalf("errs=%v, want nil on clean run", errs)
	}
	if len(out) != 10 {
		t.Fatalf("len=%d", len(out))
	}
	if out2, errs2 := MapAll(0, func(int) (int, error) { return 0, nil }); out2 != nil || errs2 != nil {
		t.Fatalf("empty: out=%v errs=%v", out2, errs2)
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil); err != nil {
		t.Fatalf("nil slice: %v", err)
	}
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Fatalf("all nil: %v", err)
	}
	a, b := errors.New("a"), errors.New("b")
	if err := FirstError([]error{nil, a, b}); !errors.Is(err, a) {
		t.Fatalf("err=%v, want lowest-index error", err)
	}
}

package workgen

import (
	"reflect"
	"testing"

	"cadinterop/internal/par"
)

// TestCombModulesEquivalence: the fanned-out corpus must match a
// sequential generation element for element.
func TestCombModulesEquivalence(t *testing.T) {
	opt := func(i int) HDLOptions {
		return HDLOptions{
			Gates: 20 + i%30, Inputs: 3, Seed: int64(i),
			UseMultiply: i%3 == 0, UsePartSelect: i%4 == 1, UseRelational: i%2 == 1,
		}
	}
	ref := CombModules("m", 40, opt, par.Workers(1))
	for i, src := range ref {
		if want := CombModule("m", opt(i)); src != want {
			t.Fatalf("sequential batch element %d differs from direct generation", i)
		}
	}
	for _, w := range []int{2, 4, 8} {
		got := CombModules("m", 40, opt, par.Workers(w))
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d corpus diverges from sequential", w)
		}
	}
}

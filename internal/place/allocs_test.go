//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression tests are compiled out of `go test -race`.

package place

import (
	"testing"

	"cadinterop/internal/geom"
)

// TestPlaceAllocs: the swap loop works on Place's dense index and its
// placement slice, so a trial allocates nothing and a Place at eight swap
// passes allocates no more than one at a single pass. Both place a 32-cell
// chain, which makes 128 trials a pass.
func TestPlaceAllocs(t *testing.T) {
	d := mkDesign(t, 32, geom.R(0, 0, 400, 400))
	allocs := func(passes int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Place(d, Options{Seed: 3, SwapPasses: passes}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	t.Logf("Place allocates %.0f objects at one swap pass, %.0f at eight", one, eight)
	if eight > one {
		t.Errorf("Place allocates %.0f objects at eight swap passes, more than %.0f at one", eight, one)
	}
}

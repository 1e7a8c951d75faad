//go:build !race

// AllocsPerRun is meaningless under the race detector's instrumentation,
// so the alloc-regression test is compiled out of `go test -race`.

package memo

import "testing"

// TestDisabledPathAllocs: the disabled path — a nil cache consulted with a
// prebuilt key — must not allocate at all, so unconditional cache threading
// costs nothing when no -cache flag is set (mirrors the obs nil-safety
// contract; gated by `make allocs`).
func TestDisabledPathAllocs(t *testing.T) {
	var c *Cache
	k := Key{Content: "deadbeef", Tool: "route", Options: "fp"}
	payload := []byte("data")
	avg := testing.AllocsPerRun(200, func() {
		if _, ok := c.Get(k, nil); ok {
			t.Fatal("nil cache hit")
		}
		c.Put(k, payload)
		if c.Hits() != 0 {
			t.Fatal("nil cache counted")
		}
	})
	if avg != 0 {
		t.Errorf("disabled path allocates %.1f objects per op, want 0", avg)
	}
}

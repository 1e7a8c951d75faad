package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric instruments. The nil Registry is the
// disabled layer: lookups return nil instruments, whose methods no-op.
// Instruments are created on first lookup and safe for concurrent use;
// because counter adds and histogram observes commute and gauges track
// a max, a fixed workload yields the same exported bytes at any worker
// count (the determinism rule in DESIGN.md §5f).
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gauge map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gauge: make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing sum.
type Counter struct {
	v atomic.Int64
}

// Add adds d (no-op on nil).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc adds one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge records a level: the last set value and the maximum ever set.
// Max is the deterministic half — for a fixed workload it is
// order-independent; Last is whatever the final Set wrote.
type Gauge struct {
	last atomic.Int64
	max  atomic.Int64
}

// Set records v and raises the max watermark (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.last.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Last returns the most recent Set value (0 on nil).
func (g *Gauge) Last() int64 {
	if g == nil {
		return 0
	}
	return g.last.Load()
}

// Max returns the highest Set value (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram counts observations into fixed buckets. An observation v
// lands in the first bucket with v <= bound; values above every bound
// land in the implicit overflow bucket. Bounds are fixed at creation,
// so bucket counts are pure sums — order-independent, deterministic.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns a snapshot of per-bucket counts, overflow last
// (nil on nil).
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Bounds returns the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counter returns the named counter, creating it on first use
// (nil from a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use
// (nil from a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauge[name]
	if g == nil {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given bucket upper
// bounds (sorted ascending), creating it on first use; later lookups
// ignore bounds. Nil from a nil registry.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := append([]int64(nil), bounds...)
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// AddFrom adds src's counters and histograms into r, creating each on
// first use: how a short-lived registry, such as one request's, is folded
// into a long-lived one. Gauges stay out, because a gauge is the level
// of the registry it was set in, not a sum. Each source histogram bucket
// adds its count to r's bucket holding that bucket's upper bound, which
// is the same bucket when the bounds agree. No-op when either registry
// is nil or both are the same.
func (r *Registry) AddFrom(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	src.mu.Lock()
	ctrs, hists := maps.Clone(src.ctrs), maps.Clone(src.hists)
	src.mu.Unlock()
	for name, c := range ctrs {
		r.Counter(name).Add(c.Value())
	}
	for name, h := range hists {
		dst := r.Histogram(name, h.bounds...)
		for i, c := range h.Buckets() {
			j := len(dst.bounds)
			if i < len(h.bounds) {
				j = sort.Search(len(dst.bounds), func(k int) bool { return h.bounds[i] <= dst.bounds[k] })
			}
			dst.buckets[j].Add(c)
		}
		dst.count.Add(h.Count())
		dst.sum.Add(h.Sum())
	}
}

// Write renders every instrument, sorted by kind then name, one line
// each — the byte-stable metrics export format:
//
//	counter <name> <sum>
//	gauge <name> last=<v> max=<v>
//	hist <name> count=<n> sum=<s> buckets=[<=b0:c0 ... inf:cK]
func (r *Registry) Write(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.ctrs) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, r.ctrs[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.gauge) {
		g := r.gauge[name]
		if _, err := fmt.Fprintf(w, "gauge %s last=%d max=%d\n", name, g.Last(), g.Max()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "hist %s count=%d sum=%d buckets=[", name, h.Count(), h.Sum()); err != nil {
			return err
		}
		for i, c := range h.Buckets() {
			if i > 0 {
				if _, err := io.WriteString(w, " "); err != nil {
					return err
				}
			}
			var err error
			if i < len(h.bounds) {
				_, err = fmt.Fprintf(w, "<=%d:%d", h.bounds[i], c)
			} else {
				_, err = fmt.Fprintf(w, "inf:%d", c)
			}
			if err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "]\n"); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

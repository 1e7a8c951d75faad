package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x", 1, 2)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(1)
	if c.Value() != 0 || g.Last() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments recorded values")
	}
	if h.Buckets() != nil || h.Bounds() != nil {
		t.Error("nil histogram returned buckets")
	}
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil Write: err=%v len=%d", err, buf.Len())
	}
}

func TestCounter(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("tasks")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("Value = %d, want 4", c.Value())
	}
	if reg.Counter("tasks") != c {
		t.Error("lookup returned a different counter")
	}
}

func TestGaugeLastAndMax(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(5)
	g.Set(9)
	g.Set(2)
	if g.Last() != 2 {
		t.Errorf("Last = %d, want 2", g.Last())
	}
	if g.Max() != 9 {
		t.Errorf("Max = %d, want 9", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("lat", 10, 2, 5) // unsorted on purpose
	for _, v := range []int64{1, 2, 3, 5, 6, 10, 11, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // <=2, <=5, <=10, inf
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if h.Sum() != 138 {
		t.Errorf("Sum = %d, want 138", h.Sum())
	}
	if b := h.Bounds(); len(b) != 3 || b[0] != 2 || b[2] != 10 {
		t.Errorf("Bounds = %v, want sorted [2 5 10]", b)
	}
}

func TestRegistryWriteSortedStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.count").Add(1)
	reg.Counter("a.count").Add(2)
	reg.Gauge("m.depth").Set(4)
	reg.Histogram("q.lat", 1, 8).Observe(3)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `counter a.count 2
counter z.count 1
gauge m.depth last=4 max=4
hist q.lat count=1 sum=3 buckets=[<=1:0 <=8:1 inf:0]
`
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Set(int64(j))
				reg.Histogram("h", 500).Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if v := reg.Counter("c").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if m := reg.Gauge("g").Max(); m != 999 {
		t.Errorf("gauge max = %d, want 999", m)
	}
	h := reg.Histogram("h", 500)
	if h.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", h.Count())
	}
	b := h.Buckets()
	if b[0] != 501*8 || b[1] != 499*8 {
		t.Errorf("hist buckets = %v", b)
	}
}

// TestRegistryAddFrom: counters and histogram buckets add, zero counters
// included, into instruments created on first use; gauges stay out; a
// histogram with other bounds lands by each source bucket's upper bound;
// nil and self are no-ops.
func TestRegistryAddFrom(t *testing.T) {
	req := NewRegistry()
	req.Counter("work.done").Add(3)
	req.Counter("work.failed")
	req.Gauge("work.depth").Set(7)
	req.Histogram("work.tries", 1, 2).Observe(2)
	req.Histogram("work.size", 10, 100).Observe(50)
	req.Histogram("work.size", 10, 100).Observe(500)

	srv := NewRegistry()
	srv.Counter("serve.served").Inc()
	srv.Histogram("work.size", 5, 200)
	srv.AddFrom(req)
	srv.AddFrom(req)
	srv.AddFrom(nil)
	srv.AddFrom(srv)
	var nilReg *Registry
	nilReg.AddFrom(req)

	var buf bytes.Buffer
	if err := srv.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `counter serve.served 1
counter work.done 6
counter work.failed 0
hist work.size count=4 sum=1100 buckets=[<=5:0 <=200:2 inf:2]
hist work.tries count=2 sum=4 buckets=[<=1:0 <=2:2 inf:0]
`
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	id := r.Start(0, "x")
	if id != 0 {
		t.Errorf("nil Start returned %d, want 0", id)
	}
	r.Attr(id, "k", "v")
	r.AttrInt(id, "n", 1)
	r.Event(id, "e", "m")
	r.EventN(id, "n", 2)
	r.End(id)
	r.Close()
	r.Merge(0, New(nil))
	if r.Child() != nil {
		t.Error("nil recorder has a child")
	}
	if r.SpanCount() != 0 {
		t.Error("nil recorder has spans")
	}
	if r.Metrics() != nil {
		t.Error("nil recorder has a registry")
	}
	if err := r.Check(); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteTree: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteChromeTrace: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteTraceFile("/nonexistent/should-not-be-touched"); err != nil {
		t.Error(err)
	}
	if err := r.WriteMetricsFile("/nonexistent/should-not-be-touched"); err != nil {
		t.Error(err)
	}
}

func TestStepClockMonotonic(t *testing.T) {
	c := &StepClock{}
	prev := int64(0)
	for i := 0; i < 5; i++ {
		if tk := c.Ticks(); tk <= prev {
			t.Fatalf("tick %d not after %d", tk, prev)
		} else {
			prev = tk
		}
	}
}

func TestSpanTreeShape(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	clk.T = 10
	root := r.Start(0, "flow")
	clk.T = 11
	a := r.Start(root, "place")
	r.Attr(a, "tool", "toolP")
	r.AttrInt(a, "cells", 24)
	clk.T = 15
	r.Event(a, "pass", "")
	r.EventN(a, "moves", 7)
	r.End(a)
	clk.T = 16
	b := r.Start(root, "route")
	clk.T = 20
	r.End(b)
	clk.T = 21
	r.End(root)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	want := `flow [10,21]
  place [11,15] tool=toolP cells=24
    @15 pass
    @15 moves=7
  route [16,20]
`
	if got := buf.String(); got != want {
		t.Errorf("tree mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestEndClosesOpenDescendants(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	clk.T = 1
	root := r.Start(0, "root")
	mid := r.Start(root, "mid")
	leaf := r.Start(mid, "leaf")
	_ = leaf
	clk.T = 5
	r.End(root) // mid and leaf still open
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(line, "[1,5]") {
			t.Errorf("span not closed at root end: %q", line)
		}
	}
}

func TestEndClampsBackwardsClock(t *testing.T) {
	clk := &ManualClock{T: 10}
	r := New(clk)
	id := r.Start(0, "x")
	clk.T = 3 // clock runs backwards
	r.End(id)
	child := r.Start(0, "y")
	r.End(child)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStartClampsToParent(t *testing.T) {
	clk := &ManualClock{T: 10}
	r := New(clk)
	p := r.Start(0, "p")
	clk.T = 4
	c := r.Start(p, "c") // would start before parent without clamping
	clk.T = 12
	r.End(c)
	r.End(p)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleEndIgnored(t *testing.T) {
	clk := &ManualClock{T: 1}
	r := New(clk)
	id := r.Start(0, "x")
	clk.T = 5
	r.End(id)
	clk.T = 9
	r.End(id) // must not move the end
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x [1,5]\n" {
		t.Errorf("got %q", got)
	}
}

func TestEventsClampedToSpanStart(t *testing.T) {
	clk := &ManualClock{T: 10}
	r := New(clk)
	id := r.Start(0, "x")
	clk.T = 2
	r.Event(id, "early", "m")
	r.EventN(id, "earlyN", 1)
	clk.T = 12
	r.End(id)
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "@10 early: m") || !strings.Contains(buf.String(), "@10 earlyN=1") {
		t.Errorf("events not clamped to span start:\n%s", buf.String())
	}
}

func TestInvalidSpanIDsIgnored(t *testing.T) {
	r := New(&ManualClock{T: 1})
	r.Attr(99, "k", "v")
	r.AttrInt(-1, "k", 1)
	r.Event(99, "e", "")
	r.EventN(99, "e", 1)
	r.End(99)
	if r.SpanCount() != 0 {
		t.Error("invalid ids created spans")
	}
}

func TestMergeReparentsAndOffsets(t *testing.T) {
	parent := New(&ManualClock{T: 1})
	root := parent.Start(0, "fanout")

	childA := New(&ManualClock{T: 100})
	fa := childA.Start(0, "flowA")
	childA.Start(fa, "stepA1")
	childB := New(&ManualClock{T: 200})
	childB.Start(0, "flowB")

	// Canonical index order regardless of completion order.
	parent.Merge(root, childA)
	parent.Merge(root, childB)
	parent.End(root)
	parent.Close()

	var buf bytes.Buffer
	if err := parent.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantOrder := []string{"fanout", "flowA", "stepA1", "flowB"}
	idx := -1
	for _, name := range wantOrder {
		next := strings.Index(got, name)
		if next <= idx {
			t.Fatalf("span %q out of order in:\n%s", name, got)
		}
		idx = next
	}
	// stepA1 must be indented under flowA (reparent + offset worked).
	if !strings.Contains(got, "    stepA1") {
		t.Errorf("stepA1 not nested under flowA:\n%s", got)
	}
}

func TestMergeSelfAndNilSafe(t *testing.T) {
	r := New(nil)
	id := r.Start(0, "x")
	r.Merge(id, r)   // self-merge must not deadlock or duplicate
	r.Merge(id, nil) // nil child
	if r.SpanCount() != 1 {
		t.Errorf("SpanCount = %d, want 1", r.SpanCount())
	}
}

func TestWriteJSONL(t *testing.T) {
	clk := &ManualClock{T: 1}
	r := New(clk)
	id := r.Start(0, "task")
	r.Attr(id, "role", "eng")
	r.AttrInt(id, "attempt", 2)
	r.Event(id, "retry", "backoff")
	r.EventN(id, "ticks", 3)
	clk.T = 4
	r.End(id)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var js map[string]any
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if js["name"] != "task" || js["start"].(float64) != 1 || js["end"].(float64) != 4 {
			t.Errorf("bad span record: %v", js)
		}
		attrs := js["attrs"].(map[string]any)
		if attrs["role"] != "eng" || attrs["attempt"].(float64) != 2 {
			t.Errorf("bad attrs: %v", attrs)
		}
		if len(js["events"].([]any)) != 2 {
			t.Errorf("bad events: %v", js["events"])
		}
	}
	if n != 1 {
		t.Errorf("got %d lines, want 1", n)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := &ManualClock{T: 1}
	r := New(clk)
	a := r.Start(0, "flowA")
	r.AttrInt(a, "n", 1)
	clk.T = 5
	r.End(a)
	b := r.Start(0, "flowB")
	sub := r.Start(b, "step")
	clk.T = 9
	r.End(sub)
	r.End(b)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph=%q, want X", ev.Name, ev.Ph)
		}
	}
	// step inherits flowB's tid (rows grouped by root flow).
	if doc.TraceEvents[2].Tid != doc.TraceEvents[1].Tid {
		t.Errorf("step tid %d != flowB tid %d", doc.TraceEvents[2].Tid, doc.TraceEvents[1].Tid)
	}
	if doc.TraceEvents[0].Tid == doc.TraceEvents[1].Tid {
		t.Error("separate flows share a tid")
	}
}

func TestWriteTraceFileFormats(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Recorder {
		clk := &ManualClock{T: 1}
		r := New(clk)
		id := r.Start(0, "x")
		clk.T = 2
		r.End(id)
		return r
	}
	cases := []struct {
		file string
		want string
	}{
		{"t.txt", "x [1,2]\n"},
		{"t.jsonl", `"name":"x"`},
		{"t.json", `"traceEvents"`},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.file)
		if err := mk().WriteTraceFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: missing %q in:\n%s", tc.file, tc.want, data)
		}
	}
	if err := mk().WriteTraceFile(filepath.Join(dir, "missing", "t.txt")); err == nil {
		t.Error("no error for uncreatable path")
	}
}

func TestWriteMetricsFile(t *testing.T) {
	dir := t.TempDir()
	r := New(nil)
	r.Metrics().Counter("a.b").Add(3)
	path := filepath.Join(dir, "m.txt")
	if err := r.WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "counter a.b 3\n" {
		t.Errorf("got %q", data)
	}
	if err := r.WriteMetricsFile(filepath.Join(dir, "missing", "m.txt")); err == nil {
		t.Error("no error for uncreatable path")
	}
}

func TestCloseIdempotent(t *testing.T) {
	clk := &ManualClock{T: 1}
	r := New(clk)
	r.Start(0, "x")
	clk.T = 3
	r.Close()
	clk.T = 9
	r.Close()
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x [1,3]\n" {
		t.Errorf("got %q", buf.String())
	}
}

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Check verifies the recorded tree's structural invariants — every span
// ended, end >= start, children inside their parents — and returns the
// first violation. The recording API maintains these by construction
// (clamping, descendant closing); Check is the property-test oracle.
func (r *Recorder) Check() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans {
		id := SpanID(i + 1)
		if !s.ended {
			return fmt.Errorf("span %d %q still open", id, s.name)
		}
		if s.end < s.start {
			return fmt.Errorf("span %d %q ends at %d before start %d", id, s.name, s.end, s.start)
		}
		if s.parent != 0 {
			if s.parent >= id || int(s.parent) > len(r.spans) {
				return fmt.Errorf("span %d %q has invalid parent %d", id, s.name, s.parent)
			}
			p := r.spans[s.parent-1]
			if s.start < p.start || s.end > p.end {
				return fmt.Errorf("span %d %q [%d,%d] escapes parent %d [%d,%d]",
					id, s.name, s.start, s.end, s.parent, p.start, p.end)
			}
		}
	}
	return nil
}

// WriteTree renders the span forest as an indented text tree in span
// creation order — the golden-trace format. Attributes render in
// recording order; events render inline under their span.
func (r *Recorder) WriteTree(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	depth := make([]int, len(r.spans))
	bw := bufio.NewWriter(w)
	for i, s := range r.spans {
		if s.parent > 0 {
			depth[i] = depth[s.parent-1] + 1
		}
		ind := strings.Repeat("  ", depth[i])
		fmt.Fprintf(bw, "%s%s [%d,%d]", ind, s.name, s.start, s.end)
		for _, a := range s.attrs {
			if a.IsInt {
				fmt.Fprintf(bw, " %s=%d", a.Key, a.Int)
			} else {
				fmt.Fprintf(bw, " %s=%s", a.Key, a.Str)
			}
		}
		fmt.Fprintln(bw)
		for _, e := range s.events {
			if e.HasVal {
				fmt.Fprintf(bw, "%s  @%d %s=%d\n", ind, e.Tick, e.Kind, e.Val)
			} else if e.Msg != "" {
				fmt.Fprintf(bw, "%s  @%d %s: %s\n", ind, e.Tick, e.Kind, e.Msg)
			} else {
				fmt.Fprintf(bw, "%s  @%d %s\n", ind, e.Tick, e.Kind)
			}
		}
	}
	return bw.Flush()
}

// jsonSpan is the JSONL export shape: one object per span, creation
// order, ids 1-based, parent 0 = root.
type jsonSpan struct {
	ID     SpanID           `json:"id"`
	Parent SpanID           `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Attrs  map[string]any   `json:"attrs,omitempty"`
	Events []map[string]any `json:"events,omitempty"`
}

// WriteJSONL emits one JSON object per span, in creation order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, s := range r.spans {
		js := jsonSpan{
			ID: SpanID(i + 1), Parent: s.parent,
			Name: s.name, Start: s.start, End: s.end,
		}
		if len(s.attrs) > 0 {
			js.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				if a.IsInt {
					js.Attrs[a.Key] = a.Int
				} else {
					js.Attrs[a.Key] = a.Str
				}
			}
		}
		for _, e := range s.events {
			ev := map[string]any{"tick": e.Tick, "kind": e.Kind}
			if e.HasVal {
				ev["val"] = e.Val
			} else if e.Msg != "" {
				ev["msg"] = e.Msg
			}
			js.Events = append(js.Events, ev)
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace_event "complete" (ph:"X") record.
// Virtual ticks map 1:1 onto microseconds; pid is always 1 and tid is
// the span's root ancestor, so each top-level flow gets its own row in
// the viewer.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the span forest as Chrome trace_event JSON
// ({"traceEvents":[...]}), loadable in chrome://tracing or Perfetto.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	root := make([]int, len(r.spans))
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.parent > 0 {
			root[i] = root[s.parent-1]
		} else {
			root[i] = i + 1
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X",
			Ts: s.start, Dur: s.end - s.start,
			Pid: 1, Tid: root[i],
		}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				if a.IsInt {
					ev.Args[a.Key] = a.Int
				} else {
					ev.Args[a.Key] = a.Str
				}
			}
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile closes the recorder and writes the trace to path in a
// format chosen by extension: .json → Chrome trace_event, .jsonl →
// JSONL, anything else → text span tree. No-op on a nil recorder.
func (r *Recorder) WriteTraceFile(path string) error {
	if r == nil {
		return nil
	}
	r.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".jsonl"):
		err = r.WriteJSONL(f)
	case strings.HasSuffix(path, ".json"):
		err = r.WriteChromeTrace(f)
	default:
		err = r.WriteTree(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteMetricsFile writes the recorder's registry to path in the text
// metrics format. No-op on a nil recorder.
func (r *Recorder) WriteMetricsFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.Metrics().Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

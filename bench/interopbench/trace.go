package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cadinterop/internal/backplane"
	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/memo"
	"cadinterop/internal/migrate"
	"cadinterop/internal/netlist"
	"cadinterop/internal/obs"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// The traced run replays a workload's first requests one at a time, then
// the cross-section requests for the endpoints the workload never calls.
// Each request gets a root span with these children:
//
//	daemon     the HTTP round trip to a freshly set-up daemon
//	engine     the direct serve call, with a cache that has seen what the
//	           daemon's has
//	reference  a cold, uncached call, when the engine has a cache
//	layers     the cold call again, one span per public call into a
//	           layer, in the engine's stage order
//	probes     calls outside the engine's path that time alternatives:
//	           the parallel router, the streaming reader, the cache key
//
// Every request is sent with jobs 1, whose output is byte-identical to
// any other worker count, so the serial layers can account for the cold
// call's time: trace.coverage is their summed self time over the
// reference time, or the engine's where the engine is uncached and so
// itself the cold call. That call runs right before the layers, so both
// start from the same warm process, and the engine, reference and layers
// each start from a just-collected heap, so none pays for garbage another
// left behind. A request that repeats one already decomposed gets only
// the daemon and engine spans.
const (
	spanDaemon    = "daemon"
	spanEngine    = "engine"
	spanReference = "reference"
	spanLayers    = "layers"
	spanProbes    = "probes"
)

type span struct {
	name       string
	req        int // request index in the workload's timed stream
	parent     int // index of the parent span; -1 for a request root
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

type tracer struct {
	epoch time.Time
	spans []span
	// counts are tallies taken at the layer boundaries: nets routed and
	// parsed, allocations, speculation outcomes, diagnostics, workflow
	// attempts.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(parent, req int, name string) int {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.epoch) }

// do runs f as one span.
func (t *tracer) do(parent int, name string, f func()) {
	id := t.begin(parent, t.spans[parent].req, name)
	f()
	t.end(id)
}

// replay runs the traced requests against tg. mirror is the engine's
// cache, primed as the daemon's was (nil when the daemon has none). It
// returns one error per request whose daemon response differed from the
// engine's or whose layers failed.
func (t *tracer) replay(client *http.Client, tg *target, reqs []request, mirror *memo.Cache) []error {
	ctx := context.Background()
	var errs []error
	decomposed := map[string]bool{}
	for i, r := range reqs {
		r = r.serial()
		root := t.begin(-1, i, "request "+r.endpoint())
		var got serve.Response
		var err error
		t.do(root, spanDaemon, func() { got, err = post(client, tg.url, r, true) })
		if err != nil {
			errs = append(errs, fmt.Errorf("traced request %d: %w", i, err))
		}
		var want serve.Response
		var rec *obs.Recorder
		runtime.GC()
		t.do(root, spanEngine, func() { want, rec = call(ctx, r, mirror) })
		if err == nil && (got.Output != want.Output || got.Exit != want.Exit) {
			errs = append(errs, fmt.Errorf("traced request %d (%s): daemon and engine responses differ", i, r.endpoint()))
		}
		if rec != nil {
			h := rec.Metrics().Histogram("workflow.attempts.per.task")
			t.counts["workflow.attempts"] += float64(h.Sum())
			t.counts["workflow.tasks"] += float64(h.Count())
			t.counts["workflow.retries"] += float64(rec.Metrics().Counter("workflow.retries").Value())
		}
		// A repeated request decomposes the same way again; one
		// decomposition per distinct request keeps the replay short.
		if !decomposed[r.key()] {
			decomposed[r.key()] = true
			if mirror != nil {
				runtime.GC()
				t.do(root, spanReference, func() { call(ctx, r, nil) })
			}
			runtime.GC()
			if err := t.decompose(root, r); err != nil {
				errs = append(errs, fmt.Errorf("traced request %d layers: %w", i, err))
			}
		}
		t.end(root)
	}
	return errs
}

// decompose records the layers and probes spans of one request.
func (t *tracer) decompose(root int, r request) error {
	layers := t.begin(root, t.spans[root].req, spanLayers)
	var probe func(probes int) error
	var err error
	switch b := r.body.(type) {
	case serve.TranslateRequest:
		probe, err = t.translateLayers(layers, b.WithDefaults())
	case serve.CheckRequest:
		probe, err = t.checkLayers(layers, b)
	case serve.MigrateRequest:
		err = t.migrateLayers(layers, b.WithDefaults())
	case serve.FlowRequest:
		t.do(layers, "serve.Flow", func() { _, err = serve.Flow(context.Background(), io.Discard, b.WithDefaults(), true) })
	}
	t.end(layers)
	if err != nil || probe == nil {
		return err
	}
	probes := t.begin(root, t.spans[root].req, spanProbes)
	defer t.end(probes)
	return probe(probes)
}

// translateLayers mirrors serve.Translate's per-tool flow: generate the
// design, translate its constraints, place, route serially, audit.
func (t *tracer) translateLayers(parent int, req serve.TranslateRequest) (func(int) error, error) {
	type placed struct {
		d  *phys.Design
		in *backplane.ToolInput
	}
	var done []placed
	for _, tool := range backplane.AllTools() {
		var (
			d   *phys.Design
			fp  *floorplan.Floorplan
			in  *backplane.ToolInput
			res *route.Result
			err error
		)
		t.do(parent, "workgen.PhysDesign", func() {
			d, fp, err = workgen.PhysDesign(workgen.PhysOptions{Cells: req.Cells, Seed: req.Seed, CriticalNets: 3, Keepouts: 1})
		})
		if err != nil {
			return nil, err
		}
		t.do(parent, "backplane.Translate", func() { in, _ = backplane.Translate(fp, d.Lib, tool) })
		t.do(parent, "place.Place", func() {
			// serve.Translate places every tool with seed 5.
			_, err = place.Place(d, place.Options{Seed: 5, Keepouts: in.Keepouts})
		})
		if err != nil {
			return nil, err
		}
		t.do(parent, "route.Route", func() {
			res, err = route.Route(d, route.Options{Pitch: 5, Rules: in.RouteRules, Keepouts: in.Keepouts, Workers: 1})
		})
		if err != nil {
			return nil, err
		}
		t.do(parent, "route.Audit", func() { route.Audit(res, backplane.FullRules(fp)) })
		done = append(done, placed{d, in})
	}
	return func(parent int) error {
		for _, p := range done {
			reg := obs.NewRegistry()
			var err error
			t.do(parent, "route.Route.parallel", func() {
				_, err = route.Route(p.d, route.Options{Pitch: 5, Rules: p.in.RouteRules, Keepouts: p.in.Keepouts, Metrics: reg})
			})
			if err != nil {
				return err
			}
			for _, c := range []string{"route.nets.routed", "route.nets.failed", "route.spec.committed", "route.spec.recomputed"} {
				t.counts[c] += float64(reg.Counter(c).Value())
			}
			t.do(parent, "exchange.Fingerprint", func() { _, err = exchange.Fingerprint(p.d.Nets) })
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// checkLayers mirrors filecheck's buffered vet of each file: read it,
// parse it, render its diagnostics and verdict.
func (t *tracer) checkLayers(parent int, req serve.CheckRequest) (func(int) error, error) {
	mode := diag.Strict
	if req.Lenient {
		mode = diag.Lenient
	}
	inputs := make([][]byte, len(req.Files))
	for i, path := range req.Files {
		var err error
		t.do(parent, "filecheck.read", func() { inputs[i], err = os.ReadFile(path) })
		if err != nil {
			return nil, err
		}
		var (
			nl       *netlist.Netlist
			diags    []diag.Diagnostic
			rerr     error
			ms0, ms1 runtime.MemStats
		)
		runtime.ReadMemStats(&ms0)
		t.do(parent, "exchange.ReadBytes", func() {
			nl, diags, rerr = exchange.ReadBytes(inputs[i], exchange.ReadOptions{Mode: mode, Source: path})
		})
		runtime.ReadMemStats(&ms1)
		t.counts["exchange.allocs"] += float64(ms1.Mallocs - ms0.Mallocs)
		t.counts["exchange.bytes"] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		if nl != nil {
			if top, ok := nl.Cell(nl.Top); ok {
				t.counts["exchange.nets"] += float64(len(top.Nets))
			}
		}
		if req.Lenient {
			t.counts["filecheck.lenient_diags"] += float64(len(diags))
		}
		t.do(parent, "filecheck.render", func() {
			var sb strings.Builder
			for _, d := range diags {
				fmt.Fprintln(&sb, d)
			}
			errs, warns := diag.Count(diags, diag.Error), diag.Count(diags, diag.Warning)
			verdict := "ok"
			if rerr != nil {
				verdict = "FAILED"
			} else if errs > 0 {
				verdict = "recovered"
			}
			fmt.Fprintf(&sb, "%s: %s (%s mode, %d error(s), %d warning(s))\n", path, verdict, mode, errs, warns)
		})
	}
	return func(parent int) error {
		for i, path := range req.Files {
			t.do(parent, "exchange.ReadStream", func() {
				exchange.ReadStream(bytes.NewReader(inputs[i]), exchange.ReadOptions{Mode: mode, Source: path})
			})
		}
		return nil
	}, nil
}

// migrateLayers mirrors serve.Migrate on a generated schematic: generate,
// migrate, verify independently, write the cd design.
func (t *tracer) migrateLayers(parent int, req serve.MigrateRequest) error {
	var w *workgen.SchematicWorkload
	t.do(parent, "workgen.Schematic", func() {
		w = workgen.Schematic(workgen.SchematicOptions{Instances: req.Gen, Pages: 1 + req.Gen/60, Seed: req.Seed})
	})
	opts := w.MigrateOptions()
	opts.SkipVerify = true
	var (
		out *schematic.Design
		rep *migrate.Report
		err error
	)
	t.do(parent, "migrate.Migrate", func() { out, rep, err = migrate.Migrate(w.Design, opts) })
	if err != nil {
		return err
	}
	opts.SkipVerify = false
	t.do(parent, "migrate.Verify", func() { _, err = migrate.Verify(w.Design, out, opts, rep) })
	if err != nil {
		return err
	}
	t.do(parent, "cd.Write", func() { err = cd.Write(io.Discard, out) })
	return err
}

// selfTime is each span's duration minus the time its children cover.
// Children of one span never overlap: the replay is serial.
func (t *tracer) selfTime() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// category is the root child a span sits under (engine, layers, ...), or
// "" for a request root.
func (t *tracer) category(i int) string {
	for t.spans[i].parent >= 0 {
		p := t.spans[i].parent
		if t.spans[p].parent < 0 {
			return t.spans[i].name
		}
		i = p
	}
	return ""
}

// writeFiles writes the Chrome trace_event JSON and the per-layer
// self-time summary for one workload into dir.
func (t *tracer) writeFiles(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Cat: t.category(i), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: 1,
			Args: map[string]int{"request": s.req}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".trace.json"), data, 0o644); err != nil {
		return err
	}

	type row struct {
		key   string
		n     int
		total time.Duration
	}
	self := t.selfTime()
	rows := map[string]*row{}
	for i, s := range t.spans {
		key := s.name
		if c := t.category(i); c != "" && c != s.name {
			key = c + "/" + s.name
		} else if c == "" {
			key = "request"
		}
		r := rows[key]
		if r == nil {
			r = &row{key: key}
			rows[key] = r
		}
		r.n++
		r.total += self[i]
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	f, err := os.Create(filepath.Join(dir, name+".layers.txt"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%-36s %6s %12s %12s\n", "span (self time)", "count", "total_ms", "mean_ms")
	for _, r := range sorted {
		fmt.Fprintf(w, "%-36s %6d %12.3f %12.3f\n", r.key, r.n, ms(r.total), ms(r.total)/float64(r.n))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics the trace supports. Timing
// metrics are medians over the traced requests that reach the layer, of
// each request's summed self time there; 0 where no request does.
func (t *tracer) layerMetrics() map[string]float64 {
	self := t.selfTime()
	type reqSums map[string]time.Duration
	perReq := map[int]reqSums{}
	total := map[string]time.Duration{}
	var covered, cold time.Duration
	var overhead []float64
	engineByEP := map[string][]float64{}
	for i, s := range t.spans {
		if perReq[s.req] == nil {
			perReq[s.req] = reqSums{}
		}
		cat := t.category(i)
		switch {
		case cat == spanLayers && s.name != spanLayers:
			covered += self[i]
			fallthrough
		case cat == spanProbes && s.name != spanProbes:
			perReq[s.req][s.name] += self[i]
			total[s.name] += self[i]
		case cat == "":
		default:
			// daemon, engine, reference, and the layers and probes
			// containers, whose presence marks a decomposed request.
			perReq[s.req][s.name] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			continue
		}
		sums := perReq[s.req]
		if _, ok := sums[spanDaemon]; ok {
			overhead = append(overhead, ms(sums[spanDaemon]-sums[spanEngine]))
		}
		ep := strings.TrimPrefix(s.name, "request ")
		engineByEP[ep] = append(engineByEP[ep], ms(sums[spanEngine]))
		if d, ok := sums[spanReference]; ok {
			cold += d
		} else if _, ok := sums[spanLayers]; ok {
			cold += sums[spanEngine]
		}
	}
	med := func(names ...string) float64 {
		var vs []float64
		for _, sums := range perReq {
			var sum time.Duration
			seen := false
			for _, n := range names {
				if d, ok := sums[n]; ok {
					sum += d
					seen = true
				}
			}
			if seen {
				vs = append(vs, ms(sum))
			}
		}
		return median(vs)
	}
	c := t.counts
	nets := c["route.nets.routed"] + c["route.nets.failed"]
	m := map[string]float64{
		"route.route_ms":             med("route.Route.parallel"),
		"route.ns_per_net":           ratio(float64(total["route.Route.parallel"]), nets),
		"route.serial_ms":            med("route.Route"),
		"route.parallel_speedup":     ratio(float64(total["route.Route"]), float64(total["route.Route.parallel"])),
		"route.spec_recomputed_frac": ratio(c["route.spec.recomputed"], c["route.spec.committed"]+c["route.spec.recomputed"]),
		"place.place_ms":             med("place.Place"),
		"route.audit_ms":             med("route.Audit"),
		"backplane.translate_ms":     med("backplane.Translate"),
		"workgen.phys_ms":            med("workgen.PhysDesign"),
		"exchange.read_ms":           med("exchange.ReadBytes"),
		"exchange.stream_read_ms":    med("exchange.ReadStream"),
		"exchange.ns_per_net":        ratio(float64(total["exchange.ReadBytes"]), c["exchange.nets"]),
		"exchange.allocs_per_net":    ratio(c["exchange.allocs"], c["exchange.nets"]),
		"exchange.bytes_per_net":     ratio(c["exchange.bytes"], c["exchange.nets"]),
		"filecheck.files_ms":         med("filecheck.read", "filecheck.render"),
		"filecheck.lenient_diags":    c["filecheck.lenient_diags"],
		"memo.fingerprint_ms":        med("exchange.Fingerprint"),
		"serve.http_overhead_ms":     median(overhead),
		"migrate.migrate_ms":         med("migrate.Migrate"),
		"migrate.verify_ms":          med("migrate.Verify"),
		"workgen.schematic_ms":       med("workgen.Schematic"),
		"cd.write_ms":                med("cd.Write"),
		"workflow.attempts_per_task": ratio(c["workflow.attempts"], c["workflow.tasks"]),
		"workflow.retries":           c["workflow.retries"],
		"trace.coverage":             ratio(float64(covered), float64(cold)),
	}
	for _, ep := range []string{"translate", "check", "migrate", "flow"} {
		m["serve."+ep+"_ms"] = median(engineByEP[ep])
	}
	return m
}

// Command interopbench is the repository's end-to-end benchmark: it
// builds cmd/interopd, starts it on loopback for each workload, drives it
// from this one process with at most two client goroutines and two
// connections, checks the daemon's outputs against in-process reference
// calls, and prints every metric as "workload metric value unit". The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	go -C bench run ./interopbench -seed 1 [-workload NAME] [-seconds S]
//	    [-trace 0|1|DIR] [-json FILE] [-daemon PATH]
//	go -C bench run ./interopbench -compare PARENT... -- CHANGE...
//
// With -trace the run also replays each workload's first requests one at
// a time, records a span around every call into a layer, writes Chrome
// trace_event JSON and a self-time summary, and reports the per-layer
// metrics. See bench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cadinterop/internal/memo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the
// metrics it reports, with their units, and the bounds -compare judges
// them by. error_rate is reported beside the end-to-end metrics; it is
// not among them, and its numerator is the result's failed count.
type benchmarkSpec struct {
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// setupReps is how many times a run sets a workload up from scratch;
// setup_s is the median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("interopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "workload seed: every input derives from it")
		only     = fs.String("workload", "", "run only this workload (default all)")
		seconds  = fs.Float64("seconds", 0, "length of each workload's timed phase (default: run_seconds in BENCHMARK.json)")
		traceArg = fs.String("trace", "0", "0 = untraced; 1 = also run the traced replay, writing into bench/out/trace; any other value names that directory")
		jsonOut  = fs.String("json", "", "also write the run's results to this file, for -compare")
		daemon   = fs.String("daemon", "", "interopd binary to drive (default: build ./cmd/interopd)")
		compare  = fs.Bool("compare", false, "compare result files: -compare PARENT... -- CHANGE...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "interopbench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "interopbench:", err)
		return 2
	}
	if *compare {
		return compareMain(spec, fs.Args(), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(stderr, "interopbench: unknown workload %q\n", *only)
			return 2
		}
		selected = []workload{w}
	}
	traceDir := ""
	switch *traceArg {
	case "0", "":
	case "1":
		traceDir = filepath.Join(root, "bench", "out", "trace")
	default:
		traceDir = *traceArg
	}

	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, "work", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(work)
	bin := *daemon
	if bin == "" {
		if err := os.MkdirAll(build, 0o755); err != nil {
			fmt.Fprintln(stderr, "interopbench:", err)
			return 2
		}
		if bin, err = buildDaemon(root, build); err != nil {
			fmt.Fprintln(stderr, "interopbench:", err)
			return 2
		}
	}
	workers := min(2, runtime.NumCPU())
	rn := &runner{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), sz: full,
		workers: workers, work: work, traceDir: traceDir, ref: coldReference, log: stderr,
		start: func(w workload, dir string) (*target, error) {
			return startDaemon(bin, workers, daemonFlags(w, dir)...)
		},
	}
	results := map[string]*result{}
	for _, w := range selected {
		res, err := rn.run(w)
		if err != nil {
			fmt.Fprintf(stderr, "interopbench: %s: %v\n", w.name, err)
			return 1
		}
		results[w.name] = res
		printLines(stdout, spec, w.name, res)
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, *seed, *seconds, results); err != nil {
			fmt.Fprintln(stderr, "interopbench:", err)
			return 1
		}
	}
	sum, err := summarize(spec, results, traceDir != "")
	if err != nil {
		fmt.Fprintln(stderr, "interopbench:", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "interopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func daemonFlags(w workload, dir string) []string {
	switch w.cache {
	case "mem":
		return []string{"-cache"}
	case "dir":
		return []string{"-cache-dir", filepath.Join(dir, "cache")}
	}
	return nil
}

// newMirror returns an in-process cache of the kind w's daemon uses.
func newMirror(w workload, dir string) (*memo.Cache, error) {
	switch w.cache {
	case "mem":
		return memo.New(nil), nil
	case "dir":
		return memo.NewDir(filepath.Join(dir, "mirror-cache"), nil)
	}
	return nil, nil
}

// findRoot returns the nearest directory at or above the working
// directory whose go.mod declares module cadinterop.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module cadinterop\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cadinterop module at or above the working directory")
		}
		dir = parent
	}
}

// runner runs workloads under one configuration.
type runner struct {
	seed     int64
	dur      time.Duration
	sz       sizes
	workers  int    // the daemon's workers, and the open loop's clients
	work     string // scratch directory for inputs and caches
	traceDir string // "" = no traced run
	start    func(w workload, dir string) (*target, error)
	ref      reference
	log      io.Writer
}

// clients is how many requests the load generator keeps in flight on w.
func (rn *runner) clients(w workload) int {
	if w.open {
		return rn.workers
	}
	return 1
}

// result is one workload's outcome in one run.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// setUp generates the workload's inputs under dir, starts a server and
// sends the warm-up and priming requests one at a time, letting sp, unless
// nil, probe the machine's speed between them as the timed phase does.
func (rn *runner) setUp(w workload, dir string, sp *speedo) (*target, *plan, time.Duration, error) {
	t0 := time.Now()
	p, err := w.build(dir, rn.seed, rn.sz)
	if err != nil {
		return nil, nil, 0, err
	}
	if c := rn.sz.warmupCap; c > 0 && len(p.warm) > c {
		p.warm = p.warm[:c]
	}
	tg, err := rn.start(w, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	for _, reqs := range [][]request{p.warm, p.prime} {
		// All due at once: the one client sends them back to back.
		res := drive(client, tg.url, 1, func(i int) request { return reqs[i] },
			make([]time.Duration, len(reqs)), time.Now(), 0, func(int, request) bool { return false }, sp)
		if len(res.errs) > 0 {
			return nil, nil, 0, errors.Join(fmt.Errorf("set-up: %w", res.errs[0]), tg.stop())
		}
	}
	return tg, p, time.Since(t0), nil
}

func (rn *runner) run(w workload) (res *result, err error) {
	var (
		tg     *target
		p      *plan
		setups []float64
	)
	// A traced run reports no setup_s, so it sets up once.
	reps := setupReps
	if rn.traceDir != "" {
		reps = 1
	}
	// Each set-up is divided by the machine's slowdown at its midpoint, as
	// the timed phase's times are.
	sp := newSpeedo(time.Now())
	for k := 0; k < reps; k++ {
		dir := filepath.Join(rn.work, w.name, fmt.Sprintf("setup-%d", k))
		from := time.Since(sp.start)
		t, pl, d, err := rn.setUp(w, dir, sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds()/sp.slowdown(from+d/2))
		if k < reps-1 {
			if err := t.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		tg, p = t, pl
	}
	defer func() {
		if tg != nil {
			err = errors.Join(err, tg.stop())
		}
	}()

	clients := rn.clients(w)
	client := newClient(clients)
	defer client.CloseIdleConnections()
	m0, err := debugMetrics(client, tg.url)
	if err != nil {
		return nil, err
	}
	var arrivals []time.Duration
	if w.open {
		arrivals = arrivalsFor(rn.seed, rn.sz.rate, rn.dur)
	}
	// The oracle checks every eighth request, and the first of each
	// request that repeats.
	seen := map[string]bool{}
	keep := func(i int, r request) bool {
		if len(p.prime) > 0 {
			if k := r.key(); !seen[k] {
				seen[k] = true
				return true
			}
		}
		return i%8 == 0
	}
	start := time.Now()
	var (
		u    *usage
		uerr error
		wg   sync.WaitGroup
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		u, uerr = sampleUsage(tg.pid, start, done)
	}()
	sp = newSpeedo(start)
	lr := drive(client, tg.url, clients, p.timed, arrivals, start, rn.dur, keep, sp)
	close(done)
	wg.Wait()
	if uerr != nil {
		return nil, uerr
	}
	m1, err := debugMetrics(client, tg.url)
	if err != nil {
		return nil, err
	}
	if len(lr.samples) == 0 {
		return nil, errors.New("the timed phase completed no request")
	}
	// The oracle runs after timing, so it costs the daemon no timed CPU.
	failures := append(lr.errs, verify(lr.kept, rn.ref, rn.workers)...)

	delta := func(name string) float64 { return m1[name] - m0[name] }
	ps := phaseFigures(lr.samples, u, sp, w.open)
	rss := make([]float64, len(u.rss))
	for i, b := range u.rss {
		rss[i] = float64(b) / (1 << 20)
	}
	m := map[string]float64{
		"setup_s":                median(setups),
		"throughput_rps":         ps.rps,
		"latency_p50_ms":         ps.p50,
		"latency_p90_ms":         ps.p90,
		"daemon_cpu_ms_per_req":  ps.cpuPerReq,
		"latency_n":              float64(len(lr.samples)),
		"daemon_rss_mb":          median(rss),
		"probes":                 float64(len(sp.at)),
		"slowdown":               sp.typical(),
		"serve.latency_p99_ms":   ps.p99,
		"par.gate.queued_frac":   ratio(delta("par.gate.queued"), delta("par.gate.admitted")),
		"par.gate.inflight_max":  m1["par.gate.inflight.max"],
		"par.gate.shed":          delta("par.gate.shed"),
		"memo.hit_rate":          ratio(delta("memo.hits"), delta("memo.hits")+delta("memo.misses")),
		"memo.hit_bytes_per_req": ratio(delta("memo.hit_bytes"), float64(lr.sent)),
		"gen.late_p99_ms":        ms(percentile(lr.late, 99)),
	}

	if rn.traceDir != "" {
		if err := tg.stop(); err != nil {
			return nil, err
		}
		tg = nil
		layers, errs, err := rn.traced(w)
		if err != nil {
			return nil, err
		}
		failures = append(failures, errs...)
		for k, v := range layers {
			m[k] = v
		}
	}
	for i, e := range failures {
		if i == 5 {
			fmt.Fprintf(rn.log, "interopbench: %s: ... %d more failures\n", w.name, len(failures)-i)
			break
		}
		fmt.Fprintf(rn.log, "interopbench: %s: %v\n", w.name, e)
	}
	m["error_rate"] = float64(len(failures)) / float64(lr.sent)
	return &result{Correct: len(failures) == 0, Attempted: lr.sent, Failed: len(failures), Metrics: m}, nil
}

// traced sets the workload up afresh, replays its first requests with
// spans, writes the trace files and returns the trace's metrics.
func (rn *runner) traced(w workload) (map[string]float64, []error, error) {
	dir := filepath.Join(rn.work, w.name, "traced")
	tg, p, _, err := rn.setUp(w, dir, nil)
	if err != nil {
		return nil, nil, err
	}
	defer tg.stop()
	mirror, err := newMirror(w, dir)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range p.prime {
		call(context.Background(), r, mirror)
	}
	k := w.traced
	if c := rn.sz.traceCap; c > 0 && k > c {
		k = c
	}
	reqs := list(k, p.timed)
	extra, err := crossSection(filepath.Join(dir, "cross"), rn.seed, rn.sz, reqs)
	if err != nil {
		return nil, nil, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	t := newTracer()
	errs := t.replay(client, tg, append(reqs, extra...), mirror)
	if err := t.writeFiles(rn.traceDir, w.name); err != nil {
		return nil, nil, err
	}
	return t.layerMetrics(), errs, tg.stop()
}

func printLines(w io.Writer, spec benchmarkSpec, name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	units := map[string]string{"error_rate": "ratio", "latency_n": "count", "probes": "count", "slowdown": "ratio"}
	for _, m := range append(append([]metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, k, res.Metrics[k], units[k])
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", name, res.Attempted, name, res.Failed)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// summarize builds the closing JSON line: the end-to-end metrics, or with
// tracing the per-layer ones. With more than one workload each name is
// prefixed with its workload. A metric BENCHMARK.json names that a run
// did not measure is an error.
func summarize(spec benchmarkSpec, results map[string]*result, traced bool) (summary, error) {
	set := spec.EndToEnd
	if traced {
		set = spec.PerLayer
	}
	s := summary{Correct: true, Metrics: map[string]valueUnit{}}
	for name, res := range results {
		s.Correct = s.Correct && res.Correct
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		for _, m := range set {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return s, fmt.Errorf("%s: BENCHMARK.json names %s, which the run did not measure", name, m.Name)
			}
			key := m.Name
			if len(results) > 1 {
				key = name + "." + m.Name
			}
			s.Metrics[key] = valueUnit{v, m.Unit}
		}
	}
	return s, nil
}

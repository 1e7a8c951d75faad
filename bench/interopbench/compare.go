package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// resultsFile is what -json writes and -compare reads: the machine the
// runs were made on and one or more sets of runs.
type resultsFile struct {
	Machine machine   `json:"machine"`
	Sets    [][]runOf `json:"sets"`
}

// runOf is one invocation's results.
type runOf struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

type machine struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"`
}

func thisMachine() machine {
	m := machine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

// writeResults writes one run to arg: FILE holds just this run, and
// FILE#N adds it to the N-th set of FILE, creating the file or set.
func writeResults(arg string, seed int64, seconds float64, results map[string]*result) error {
	path, set, hasSet := strings.Cut(arg, "#")
	f := resultsFile{Machine: thisMachine()}
	n := 0
	if hasSet {
		var err error
		if n, err = strconv.Atoi(set); err != nil || n < 0 {
			return fmt.Errorf("-json %s: bad set %q", arg, set)
		}
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &f); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	for len(f.Sets) <= n {
		f.Sets = append(f.Sets, nil)
	}
	f.Sets[n] = append(f.Sets[n], runOf{Seed: seed, Seconds: seconds, Workloads: results})
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRuns loads the runs named by arg: FILE for every run in the file,
// FILE#N for the runs of its N-th set only.
func readRuns(arg string) ([]runOf, error) {
	path, set, hasSet := strings.Cut(arg, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !hasSet {
		var all []runOf
		for _, s := range f.Sets {
			all = append(all, s...)
		}
		return all, nil
	}
	n, err := strconv.Atoi(set)
	if err != nil || n < 0 || n >= len(f.Sets) {
		return nil, fmt.Errorf("%s: no set %q (file has %d)", path, set, len(f.Sets))
	}
	return f.Sets[n], nil
}

// Verdicts of a comparison, per (metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest pairs that can carry a claimed gain.
const minPairs = 10

// classify compares a metric's parent runs with its change runs, paired by
// index (the i-th parent run beside the i-th change run). A gain needs at
// least minPairs pairs, the change better in at least nine tenths of
// them (ties count for neither), and medians further apart than the
// parent's quartile spread. A regression is a change median worse than
// the parent's by more than bound, as a share of the parent median. When
// neither holds but the parent's own spread exceeds the bound, the
// result is unresolved, unless every change run beats every parent run.
func classify(parent, change []float64, lowerBetter bool, bound float64) (verdict string, wins, pairs int) {
	pairs = min(len(parent), len(change))
	better := func(a, b float64) bool { // a is better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q1, pm, q3 := quartiles(parent)
	cm := median(change)
	gain := cm - pm
	if lowerBetter {
		gain = -gain
	}
	switch {
	case pairs == 0:
		return unresolved, 0, 0
	case -gain > bound*math.Abs(pm):
		return regressed, wins, pairs
	case pairs >= minPairs && wins*10 >= 9*pairs && gain > q3-q1:
		return improved, wins, pairs
	case pm != 0 && (q3-q1)/math.Abs(pm) > bound && !allBetter(change, parent, better):
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

func compareMain(spec benchmarkSpec, args []string, stdout, stderr io.Writer) int {
	if err := compareFiles(spec, args, stdout); err != nil {
		fmt.Fprintln(stderr, "interopbench:", err)
		return 2
	}
	return 0
}

// compareFiles implements -compare PARENT... -- CHANGE...: one row per
// (workload, end-to-end metric) with each side's median and quartiles,
// the change's wins, and the verdict against the metric's bound in
// BENCHMARK.json. A further row per workload fails on any increase in failed
// requests.
func compareFiles(spec benchmarkSpec, args []string, w io.Writer) error {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		return errors.New("usage: interopbench -compare PARENT... -- CHANGE...")
	}
	parent, err := loadRuns(args[:sep])
	if err != nil {
		return err
	}
	change, err := loadRuns(args[sep+1:])
	if err != nil {
		return err
	}
	writeComparison(w, spec, parent, change)
	return nil
}

func loadRuns(args []string) ([]runOf, error) {
	var all []runOf
	for _, a := range args {
		runs, err := readRuns(a)
		if err != nil {
			return nil, err
		}
		all = append(all, runs...)
	}
	return all, nil
}

func writeComparison(w io.Writer, spec benchmarkSpec, parent, change []runOf) {
	names := map[string]bool{}
	for _, runs := range [][]runOf{parent, change} {
		for _, r := range runs {
			for n := range r.Workloads {
				names[n] = true
			}
		}
	}
	var sorted []string
	for _, wl := range workloads {
		if names[wl.name] {
			sorted = append(sorted, wl.name)
		}
	}
	values := func(runs []runOf, wl, m string) []float64 {
		var vs []float64
		for _, r := range runs {
			if res := r.Workloads[wl]; res != nil {
				if v, ok := res.Metrics[m]; ok {
					vs = append(vs, v)
				}
			}
		}
		return vs
	}
	failed := func(runs []runOf, wl string) (n int) {
		for _, r := range runs {
			if res := r.Workloads[wl]; res != nil {
				n += res.Failed
			}
		}
		return n
	}
	fmt.Fprintf(w, "%-15s %-22s %22s %22s %7s  %s\n", "workload", "metric", "parent med [q1,q3]", "change med [q1,q3]", "wins", "verdict")
	counts := map[string]int{}
	for _, wl := range sorted {
		for _, m := range spec.EndToEnd {
			p, c := values(parent, wl, m.Name), values(change, wl, m.Name)
			v, wins, pairs := classify(p, c, m.Better == "lower", m.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-15s %-22s %22s %22s %3d/%-3d  %s (bound %g%%)\n",
				wl, m.Name, spread(p), spread(c), wins, pairs, v, m.Bound*100)
		}
		v := unchanged
		if failed(change, wl) > failed(parent, wl) {
			v = regressed
		}
		counts[v]++
		fmt.Fprintf(w, "%-15s %-22s %22d %22d %7s  %s (bound: any increase)\n",
			wl, "failed", failed(parent, wl), failed(change, wl), "", v)
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	fmt.Fprintf(w, "summary: %s\n", strings.Join(parts, ", "))
}

func spread(vs []float64) string {
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", q2, q1, q3)
}

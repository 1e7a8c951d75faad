// Command experiments runs the full constructed-experiment harness
// (E1–E19, see EXPERIMENTS.md) and prints every report. Positional
// arguments select a subset by experiment id — only the selected
// experiments run. The harness fans out across -j workers; output is
// byte-identical at every worker count. A failing experiment degrades to
// a FAILED report in its slot; the rest of the harness still prints, and
// the exit status reports the first failure. -trace and -metrics dump
// the harness's deterministic span trace and metric registry.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"cadinterop/internal/experiments"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
)

func main() {
	var (
		jobs       = flag.Int("j", 0, "worker count (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		traceFile  = flag.String("trace", "", "write the span trace to this file (.json = Chrome trace, .jsonl = JSON lines, else text tree)")
		metrics    = flag.String("metrics", "", "write the metrics registry to this file as text")
	)
	flag.Parse()
	if err := run(*jobs, *cpuprofile, *memprofile, *traceFile, *metrics, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(jobs int, cpuprofile, memprofile, traceFile, metricsFile string, ids []string) (err error) {
	if cpuprofile != "" {
		f, cerr := os.Create(cpuprofile)
		if cerr != nil {
			return cerr
		}
		// Close is checked, not deferred-and-dropped: the profile flushes
		// at StopCPUProfile, and a short write or full disk can surface
		// only at Close — a truncated profile with exit 0 is worse than
		// no profile.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var rec *obs.Recorder
	if traceFile != "" || metricsFile != "" {
		rec = obs.New(nil)
	}
	reports, err := experiments.RunObserved(ids, rec, par.Workers(jobs))
	for _, r := range reports {
		fmt.Println(r.String())
	}
	// The profile and observability files land even when an experiment
	// failed: a degraded run is exactly the one worth inspecting.
	if memprofile != "" {
		if werr := writeMemProfile(memprofile); werr != nil {
			return werr
		}
	}
	if rec != nil {
		if traceFile != "" {
			if werr := rec.WriteTraceFile(traceFile); werr != nil {
				return werr
			}
		}
		if metricsFile != "" {
			if werr := rec.WriteMetricsFile(metricsFile); werr != nil {
				return werr
			}
		}
	}
	return err
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

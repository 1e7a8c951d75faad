// Command bplane demonstrates the Section 4 P&R backplane: one floorplan
// translated into each tool dialect, with the loss report and the measured
// quality damage when the design is actually placed and routed under the
// translated (possibly impoverished) constraints. Dialects run
// concurrently across -j workers; the output is identical at every worker
// count. The run itself lives in internal/serve — the same entry point the
// interop daemon exposes as /v1/translate — so a daemon response and this
// command's stdout are byte-identical by construction.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/serve"
)

// config carries the command's flag settings into run.
type config struct {
	cells       int
	seed        int64
	tool        string
	printLoss   bool
	jobs        int
	roundTrip   bool
	traceFile   string
	metricsFile string
	cache       bool
	cacheDir    string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.cells, "cells", 24, "standard cell count in the generated design")
	flag.Int64Var(&cfg.seed, "seed", 11, "generator seed")
	flag.StringVar(&cfg.tool, "tool", "", "run only one tool dialect (toolP|toolQ|toolR)")
	flag.BoolVar(&cfg.printLoss, "loss", false, "print the full loss report")
	flag.IntVar(&cfg.jobs, "j", 0, "worker count (0 = GOMAXPROCS, 1 = sequential)")
	flag.StringVar(&cfg.traceFile, "trace", "", "write the span trace to this file (.json = Chrome trace, .jsonl = JSON lines, else text tree)")
	flag.StringVar(&cfg.metricsFile, "metrics", "", "write the metrics registry to this file as text")
	flag.BoolVar(&cfg.roundTrip, "roundtrip", false, "gate each dialect's flow on an exchange round-trip integrity check")
	flag.BoolVar(&cfg.cache, "cache", false, "memoize each translation's rendered output by content address (in memory)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "persist the translation cache under this directory so repeat runs skip unchanged translations (implies -cache)")
	var (
		check   = flag.Bool("check", false, "vet the interchange files given as arguments (reader by extension) and exit")
		strict  = flag.Bool("strict", true, "with -check: abort a file on its first error-severity diagnostic")
		lenient = flag.Bool("lenient", false, "with -check: quarantine malformed records and keep parsing")
	)
	flag.Parse()
	if *check {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "bplane: -check needs file arguments")
			os.Exit(2)
		}
		if err := runCheck(cfg, flag.Args(), *lenient || !*strict); err != nil {
			fmt.Fprintln(os.Stderr, "bplane:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bplane:", err)
		os.Exit(1)
	}
}

// openCache resolves the -cache/-cache-dir flags into a memo cache (nil =
// memoization off), registering its counters in reg when given.
func openCache(cfg config, reg *obs.Registry) (*memo.Cache, error) {
	if cfg.cacheDir != "" {
		return memo.NewDir(cfg.cacheDir, reg)
	}
	if cfg.cache {
		return memo.New(reg), nil
	}
	return nil, nil
}

// runCheck vets the argument files. The cache's hit/miss counters land in
// the same registry -metrics is written from — the -check path used to
// open the cache with a nil registry, which silently dropped memo.hits/
// memo.misses in exactly the mode the CI cold-vs-warm gate audits.
func runCheck(cfg config, files []string, lenient bool) error {
	var rec *obs.Recorder
	if cfg.metricsFile != "" {
		rec = obs.New(nil)
	}
	cache, cerr := openCache(cfg, rec.Metrics())
	if cerr != nil {
		return cerr
	}
	req := serve.CheckRequest{Files: files, Lenient: lenient, Jobs: cfg.jobs}
	err := serve.Check(context.Background(), os.Stdout, req, cache)
	if cfg.metricsFile != "" {
		if werr := rec.WriteMetricsFile(cfg.metricsFile); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func run(cfg config) error {
	// The flow fan-out traces into rec; the cache registers its hit/miss
	// counters in the same registry the -metrics file is written from, so
	// warm runs are auditable.
	var rec *obs.Recorder
	if cfg.traceFile != "" || cfg.metricsFile != "" {
		rec = obs.New(nil)
	}
	cache, err := openCache(cfg, rec.Metrics())
	if err != nil {
		return err
	}
	req := serve.TranslateRequest{
		Cells: cfg.cells, Seed: cfg.seed, Tool: cfg.tool, Loss: cfg.printLoss,
		Jobs: cfg.jobs, RoundTrip: cfg.roundTrip,
	}
	err = serve.Translate(context.Background(), os.Stdout, req, rec, cache)
	if err != nil && !cfg.roundTrip {
		return err
	}
	if rec != nil {
		if cfg.traceFile != "" {
			if werr := rec.WriteTraceFile(cfg.traceFile); werr != nil {
				return werr
			}
		}
		if cfg.metricsFile != "" {
			if werr := rec.WriteMetricsFile(cfg.metricsFile); werr != nil {
				return werr
			}
		}
	}
	// With -roundtrip a gate failure was printed per tool above; still exit
	// non-zero so scripts notice.
	return err
}

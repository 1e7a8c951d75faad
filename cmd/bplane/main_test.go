package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadinterop/internal/serve"
)

func TestRunAllTools(t *testing.T) {
	if err := run(config{cells: 20, seed: 11}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllToolsSequential(t *testing.T) {
	if err := run(config{cells: 20, seed: 11, jobs: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneToolWithLoss(t *testing.T) {
	if err := run(config{cells: 16, seed: 7, tool: "toolQ", printLoss: true, jobs: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRoundTripGate(t *testing.T) {
	if err := run(config{cells: 16, seed: 7, roundTrip: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownTool(t *testing.T) {
	if err := run(config{cells: 16, seed: 7, tool: "toolZ"}); err == nil {
		t.Error("unknown tool accepted")
	}
}

func TestRunWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		cells:       16,
		seed:        7,
		traceFile:   filepath.Join(dir, "trace.txt"),
		metricsFile: filepath.Join(dir, "metrics.txt"),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cfg.traceFile, cfg.metricsFile} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Errorf("%s: empty", p)
		}
	}
}

// TestCheckMetricsCountMemo: in -check -cache-dir -metrics mode the
// cache's hit/miss counters must land in the metrics file. The -check
// path used to open its cache with a nil registry, so the file the CI
// cold-vs-warm gate audits silently lacked memo.hits/memo.misses.
func TestCheckMetricsCountMemo(t *testing.T) {
	dir := t.TempDir()
	// A parseable interchange file: a generated migration's cd output.
	var design bytes.Buffer
	req := serve.MigrateRequest{Gen: 8}.WithDefaults()
	if err := serve.Migrate(context.Background(), io.Discard, &design, req, nil); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "d.cd")
	if err := os.WriteFile(file, design.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{cacheDir: filepath.Join(dir, "cache")}
	cold := filepath.Join(dir, "cold.txt")
	warm := filepath.Join(dir, "warm.txt")
	for i, mf := range []string{cold, warm} {
		cfg.metricsFile = mf
		if err := runCheck(cfg, []string{file}, false); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	coldB, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(coldB), "memo.misses 1") {
		t.Errorf("cold metrics missing memo.misses:\n%s", coldB)
	}
	if !strings.Contains(string(warmB), "memo.hits 1") {
		t.Errorf("warm metrics missing memo.hits:\n%s", warmB)
	}
}

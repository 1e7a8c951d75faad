package serve

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadinterop/internal/memo"
	"cadinterop/internal/migrate"
)

func TestTranslateDefaultsMatchBareRun(t *testing.T) {
	// WithDefaults on a zero request means the same run as explicit CLI
	// defaults — the property a minimal JSON body relies on.
	var a, b bytes.Buffer
	if err := Translate(context.Background(), &a, TranslateRequest{}.WithDefaults(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := Translate(context.Background(), &b, TranslateRequest{Cells: 24, Seed: 11}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("zero-request defaults differ from explicit CLI defaults")
	}
	if !strings.Contains(a.String(), "toolP") || !strings.Contains(a.String(), "constraint loss by class") {
		t.Errorf("unexpected translate output:\n%s", a.String())
	}
}

func TestTranslateUnknownTool(t *testing.T) {
	var w bytes.Buffer
	err := Translate(context.Background(), &w, TranslateRequest{Cells: 8, Seed: 1, Tool: "nope"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown tool") {
		t.Errorf("err = %v", err)
	}
}

// TestTranslateKeySeparatesInputs: a translation is stored under a key
// that every rendered input moves — cells, seed, tool, loss and
// roundtrip each make a request miss the entry of one that differs only
// there — while jobs, which changes no byte of the output, and an
// identical request find it.
func TestTranslateKeySeparatesInputs(t *testing.T) {
	base := TranslateRequest{Cells: 16, Seed: 1}
	cache := memo.New(nil)
	if err := Translate(context.Background(), io.Discard, base, nil, cache); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  TranslateRequest
		hit  bool
	}{
		{"cells", TranslateRequest{Cells: 17, Seed: 1}, false},
		{"seed", TranslateRequest{Cells: 16, Seed: 2}, false},
		{"tool", TranslateRequest{Cells: 16, Seed: 1, Tool: "toolP"}, false},
		{"loss", TranslateRequest{Cells: 16, Seed: 1, Loss: true}, false},
		{"roundtrip", TranslateRequest{Cells: 16, Seed: 1, RoundTrip: true}, false},
		{"jobs", TranslateRequest{Cells: 16, Seed: 1, Jobs: 1}, true},
		{"identical", base, true},
	} {
		hits := cache.Hits()
		if err := Translate(context.Background(), io.Discard, c.req, nil, cache); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hit := cache.Hits() > hits; hit != c.hit {
			t.Errorf("%s: hit %v, want %v", c.name, hit, c.hit)
		}
	}
}

func TestCheckNeedsFiles(t *testing.T) {
	if err := Check(context.Background(), &bytes.Buffer{}, CheckRequest{}, nil); err == nil {
		t.Error("empty file list accepted")
	}
}

func TestFlowUnknownStore(t *testing.T) {
	req := FlowRequest{Blocks: 2, Store: "bogus"}
	if _, err := Flow(context.Background(), &bytes.Buffer{}, req, false); err == nil {
		t.Error("unknown store accepted")
	}
}

func TestFlowDotMode(t *testing.T) {
	var w bytes.Buffer
	req := FlowRequest{Blocks: 2, Store: "mem", Dot: true}
	rec, err := Flow(context.Background(), &w, req, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Error("dot mode returned a recorder")
	}
	if !strings.Contains(w.String(), "digraph") {
		t.Errorf("no dot output:\n%s", w.String())
	}
}

func TestFlowReworkTriState(t *testing.T) {
	// Absent rework means the CLI default (on); explicit false disables
	// the floorplan change, so the rework banner must vanish.
	var on, off bytes.Buffer
	f := false
	if _, err := Flow(context.Background(), &on, FlowRequest{Blocks: 2, Store: "mem"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := Flow(context.Background(), &off, FlowRequest{Blocks: 2, Store: "mem", Rework: &f}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on.String(), "after rework") {
		t.Error("default run skipped rework")
	}
	if strings.Contains(off.String(), "after rework") {
		t.Error("rework=false still reworked")
	}
}

func TestEntryPointsHonorCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Translate(ctx, &bytes.Buffer{}, TranslateRequest{}.WithDefaults(), nil, nil); err != context.Canceled {
		t.Errorf("Translate: %v", err)
	}
	if err := Check(ctx, &bytes.Buffer{}, CheckRequest{Files: []string{"x"}}, nil); err != context.Canceled {
		t.Errorf("Check: %v", err)
	}
	if err := Migrate(ctx, &bytes.Buffer{}, &bytes.Buffer{}, MigrateRequest{Gen: 4}.WithDefaults(), nil); err != context.Canceled {
		t.Errorf("Migrate: %v", err)
	}
	if _, err := Flow(ctx, &bytes.Buffer{}, FlowRequest{}.WithDefaults(), false); err != context.Canceled {
		t.Errorf("Flow: %v", err)
	}
}

func TestMigrateGenRendersReportAndDesign(t *testing.T) {
	var rep, design bytes.Buffer
	req := MigrateRequest{Gen: 12}.WithDefaults()
	if err := Migrate(context.Background(), &rep, &design, req, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "instances replaced") {
		t.Errorf("report missing summary:\n%s", rep.String())
	}
	if design.Len() == 0 {
		t.Error("no design bytes written")
	}
}

func TestMigrateMissingInputs(t *testing.T) {
	err := Migrate(context.Background(), &bytes.Buffer{}, &bytes.Buffer{}, MigrateRequest{}.WithDefaults(), nil)
	if err == nil || !strings.Contains(err.Error(), "need -in") {
		t.Errorf("err = %v", err)
	}
}

// Moved with parseMapFile from cmd/schemig: every malformed directive is
// rejected with a location, and a clean file round-trips into options.
func TestParseMapFileErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ name, text string }{
		{"bad directive", "FROB x y\n"},
		{"bad sym", "SYM onlyone\n"},
		{"bad key", "SYM ab cd:ef:gh\n"},
		{"bad pinmap", "SYM a:b:c d:e:f nopins\n"},
		{"bad global", "GLOBAL onlyone\n"},
		{"bad prop", "PROP frobnicate x\n"},
		{"bad prop rename", "PROP rename onlyold\n"},
		{"bad callback", "CALLBACK propname\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := filepath.Join(dir, "m.txt")
			if err := os.WriteFile(p, []byte(c.text), 0o644); err != nil {
				t.Fatal(err)
			}
			var opts migrate.Options
			if err := parseMapFile(p, &opts); err == nil {
				t.Errorf("accepted %q", c.text)
			}
		})
	}
	// Comments and blanks are fine.
	p := filepath.Join(dir, "ok.txt")
	os.WriteFile(p, []byte("# comment\n\nGLOBAL a b\n"), 0o644)
	var opts migrate.Options
	if err := parseMapFile(p, &opts); err != nil {
		t.Errorf("clean file rejected: %v", err)
	}
	if opts.GlobalMap["a"] != "b" {
		t.Errorf("GlobalMap = %v", opts.GlobalMap)
	}
}

func TestFlowTraceRootIsFlowrun(t *testing.T) {
	// The daemon's /v1/flow trace must keep the CLI's root span name so
	// golden traces transfer between the two front ends.
	rec, err := Flow(context.Background(), &bytes.Buffer{}, FlowRequest{}.WithDefaults(), true)
	if err != nil {
		t.Fatal(err)
	}
	var w bytes.Buffer
	if err := rec.WriteTree(&w); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.String(), "flowrun [") {
		t.Errorf("trace root:\n%s", w.String())
	}
}

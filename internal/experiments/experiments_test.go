package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cadinterop/internal/obs"
	"cadinterop/internal/par"
)

func TestE1(t *testing.T) {
	r, err := E1ComponentReplacement([]int{30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 3 {
		t.Fatalf("lines = %v", r.Lines)
	}
	for _, l := range r.Lines[1:] {
		if !strings.Contains(l, "clean") {
			t.Errorf("migration not clean: %q", l)
		}
	}
}

func TestE2(t *testing.T) {
	r, err := E2MigrationAblation(60)
	if err != nil {
		t.Fatal(err)
	}
	// Header + 6 rows; "none" row has 0 diffs; bus/connector ablations
	// have non-zero diffs.
	if len(r.Lines) != 7 {
		t.Fatalf("lines = %v", r.Lines)
	}
	if !strings.Contains(r.Lines[1], " 0 ") {
		t.Errorf("full migration row = %q", r.Lines[1])
	}
	for _, i := range []int{2, 3} { // bus-translation, connectors
		if strings.Contains(r.Lines[i], "     0 ") {
			t.Errorf("ablation row should show diffs: %q", r.Lines[i])
		}
	}
}

func TestE3(t *testing.T) {
	r, err := E3SchedulerDivergence(3)
	if err != nil {
		t.Fatal(err)
	}
	// Racy row shows >1 distinct results; race-free row exactly 1.
	racy, clean := r.Lines[1], r.Lines[2]
	if !strings.HasPrefix(racy, "racy") || !strings.HasPrefix(clean, "race-free") {
		t.Fatalf("rows: %v", r.Lines)
	}
	var rd, rr, cd, cr int
	if _, err := scan(racy, &rd, &rr); err != nil {
		t.Fatal(err)
	}
	if _, err := scan(clean, &cd, &cr); err != nil {
		t.Fatal(err)
	}
	if rd < 2 || rr == 0 {
		t.Errorf("racy: distinct=%d races=%d", rd, rr)
	}
	if cd != 1 || cr != 0 {
		t.Errorf("clean: distinct=%d races=%d", cd, cr)
	}
}

// scan pulls the last two integers from a row.
func scan(row string, a, b *int) (int, error) {
	f := strings.Fields(row)
	var x, y int
	n, err := parseInt(f[len(f)-2], &x)
	if err != nil {
		return n, err
	}
	if _, err := parseInt(f[len(f)-1], &y); err != nil {
		return 0, err
	}
	*a, *b = x, y
	return 2, nil
}

func parseInt(s string, out *int) (int, error) {
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, nil
		}
		v = v*10 + int(c-'0')
	}
	*out = v
	return 1, nil
}

func TestE4(t *testing.T) {
	r, err := E4TimingCompat(3)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "DRIFT") {
		t.Errorf("no drift found:\n%s", joined)
	}
	if !strings.Contains(joined, "verdict changes across simulator versions: 1") {
		t.Errorf("drift summary wrong:\n%s", joined)
	}
}

func TestE5(t *testing.T) {
	r, err := E5CoSim()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "x propagated (faithful)") {
		t.Errorf("strict row wrong:\n%s", joined)
	}
	if !strings.Contains(joined, "x silently became 0") {
		t.Errorf("optimistic row wrong:\n%s", joined)
	}
}

func TestE6(t *testing.T) {
	r, err := E6SubsetIntersection(30)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "intersection") {
		t.Errorf("report:\n%s", joined)
	}
}

func TestE7(t *testing.T) {
	r, err := E7SensitivityCompletion(4)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "mismatches after c-only change: 4/4") {
		t.Errorf("report:\n%s", joined)
	}
}

func TestE8(t *testing.T) {
	r, err := E8Naming(200)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "alias groups") || !strings.Contains(joined, "keyword collisions") {
		t.Errorf("report:\n%s", joined)
	}
	if !strings.Contains(joined, "round trips: 200/200 exact") {
		t.Errorf("flatten fidelity:\n%s", joined)
	}
}

func TestE9(t *testing.T) {
	r, err := E9BackplaneLoss(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 4 {
		t.Fatalf("lines = %v", r.Lines)
	}
	// toolP row should show 0 lost constraints and 0 violations.
	if !strings.HasPrefix(r.Lines[1], "toolP") {
		t.Fatalf("row order: %v", r.Lines)
	}
}

func TestE10(t *testing.T) {
	r, err := E10Workflow(3)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "notifications=1") {
		t.Errorf("report:\n%s", joined)
	}
	if !strings.Contains(joined, "metrics:") {
		t.Errorf("report:\n%s", joined)
	}
}

func TestE11(t *testing.T) {
	r, err := E11Methodology(12)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "tasks=") || !strings.Contains(joined, "best-in-class") {
		t.Errorf("report:\n%s", joined)
	}
	if !strings.Contains(joined, "optimize: convention") || !strings.Contains(joined, "optimize: substitute") {
		t.Errorf("optimization lines missing:\n%s", joined)
	}
}

func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in short mode")
	}
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 19 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.String() == "" || len(r.Lines) == 0 {
			t.Errorf("empty report %s", r.ID)
		}
		if strings.Contains(r.Title, "FAILED") {
			t.Errorf("experiment %s failed: %v", r.ID, r.Lines)
		}
	}
}

func TestE17(t *testing.T) {
	r, err := E17Memoization()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if strings.Contains(joined, "DIVERGED") {
		t.Errorf("identity verdict failed:\n%s", joined)
	}
	// The incremental path must actually engage (no fallback column entries)
	// and the warm flow pass must run zero tools.
	for _, line := range r.Lines {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == "warm" && f[1] != "0" {
			t.Errorf("warm pass executed %s tools:\n%s", f[1], joined)
		}
	}
	if !strings.Contains(joined, "identical") {
		t.Errorf("no identity verdicts rendered:\n%s", joined)
	}
	for _, bad := range []string{"dirty-set-too-large", "reroute-failed", "options-changed"} {
		if strings.Contains(joined, bad) {
			t.Errorf("incremental fallback %q tripped:\n%s", bad, joined)
		}
	}
}

// TestE18 runs the crash-resume sweep twice: the report must render every
// crash point as exact with zero divergence flags, and be byte-identical
// across runs (E18CrashResume already hard-fails internally on any
// non-exact resume, so the assertions here pin the rendered table).
func TestE18(t *testing.T) {
	r, err := E18CrashResume()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "ErrJournalDiverged") {
		t.Errorf("mutation-safety line missing:\n%s", joined)
	}
	for _, line := range r.Lines[1:] {
		f := strings.Fields(line)
		if len(f) == 6 && f[len(f)-1] != "0" {
			t.Errorf("diverged column nonzero: %s", line)
		}
		if len(f) == 6 && f[3] != f[4] {
			t.Errorf("crash points %s != exact %s: %s", f[3], f[4], line)
		}
	}
	r2, err := E18CrashResume()
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != r.String() {
		t.Errorf("E18 not deterministic:\n--- a\n%s\n--- b\n%s", r, r2)
	}
}

// TestE19 pins the discovery matrix: the harness must fire in the seams
// the repo knows are real (exchange attr keys, sim policy races, synth
// subset asymmetry, backplane constraint drops), and the rendered table —
// shrinking included — must be byte-identical across runs and worker
// counts.
func TestE19(t *testing.T) {
	r, err := E19Discovery(2)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"vl-cd", "exch-plain", "sim-fifo-lifo", "synth-vendora-vendorb", "bp-toolp-toolq", "total"} {
		if !strings.Contains(joined, want) {
			t.Errorf("row %q missing:\n%s", want, joined)
		}
	}
	totals := strings.Fields(r.Lines[len(r.Lines)-2])
	if len(totals) == 4 && totals[2] == "0" {
		t.Errorf("fixed-seed discovery found zero failures:\n%s", joined)
	}
	serial, err := E19Discovery(2, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := E19Discovery(2, par.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != r.String() || wide.String() != r.String() {
		t.Errorf("E19 not worker-count independent:\n--- default\n%s\n--- j1\n%s\n--- j8\n%s", r, serial, wide)
	}
}

func TestRunSelected(t *testing.T) {
	reports, err := Run([]string{"E13", "e3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].ID != "E13" || reports[1].ID != "E3" {
		t.Fatalf("reports = %+v", reports)
	}
	if _, err := Run([]string{"E99"}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestE13(t *testing.T) {
	r, err := E13FaultRobustness(4)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	// Header + 6 policy×rate rows at minimum.
	if len(r.Lines) < 7 {
		t.Fatalf("lines = %v", r.Lines)
	}
	// Rate-0 rows complete everything: tasks == complete, 0 failed/blocked.
	tasks := 4*3 + 2 // per-block rtl/synth/signoff + plan + assemble
	for _, row := range r.Lines[1:3] {
		f := strings.Fields(row)
		if f[0] != "0.00" {
			t.Fatalf("row order: %q", row)
		}
		if f[2] != fmt.Sprint(tasks) || f[3] != fmt.Sprint(tasks) || f[4] != "0" || f[5] != "0" {
			t.Errorf("fault-free row not fully complete: %q", row)
		}
	}
	// Injected rates must actually damage the no-retry runs somewhere.
	if !strings.Contains(joined, "failed:") && !strings.Contains(joined, "blocked:") {
		t.Errorf("no visible damage at rate 0.4:\n%s", joined)
	}
	// Determinism: a second run renders byte-identically.
	again, err := E13FaultRobustness(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != again.String() {
		t.Errorf("E13 not reproducible:\n--- first\n%s\n--- second\n%s", r, again)
	}
}

func TestE12(t *testing.T) {
	r, err := E12Interchange(15)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	if strings.Contains(joined, "diffs") {
		t.Errorf("interchange should be lossless at every limit:\n%s", joined)
	}
	if !strings.Contains(joined, "unlimited") {
		t.Errorf("report:\n%s", joined)
	}
}

func TestE15(t *testing.T) {
	r, err := E15Observability(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 7 { // header + 3 rates × 2 policies
		t.Fatalf("lines = %v", r.Lines)
	}
	// Fault-free rows: no retries, no faults, no backoff, all complete.
	tasks := 4*3 + 2
	for _, row := range r.Lines[1:3] {
		f := strings.Fields(row)
		if f[0] != "0.00" {
			t.Fatalf("row order: %q", row)
		}
		if f[3] != fmt.Sprint(tasks) || f[4] != "0" || f[5] != "0" || f[6] != "0" {
			t.Errorf("fault-free row shows fault accounting: %q", row)
		}
	}
	// The retry3 rows at nonzero rates must spend ticks on backoff and
	// recover more tasks than no-retry at the same rate.
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "retry3") {
		t.Fatalf("report:\n%s", joined)
	}
	// Determinism: byte-identical on a second run.
	again, err := E15Observability(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != again.String() {
		t.Errorf("E15 not reproducible:\n--- first\n%s\n--- second\n%s", r, again)
	}
}

func TestE16(t *testing.T) {
	r, err := E16Scale()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Lines, "\n")
	// Every equality verdict must hold: piped parse vs in-memory parse,
	// parsed elements vs manifest.
	if strings.Contains(joined, "DIVERGED") || strings.Contains(joined, "MISMATCH") {
		t.Fatalf("equivalence verdict failed:\n%s", joined)
	}
	// Determinism: byte-identical on a second run (window high-water
	// included — the pipe delivers the same read sizes every time).
	again, err := E16Scale()
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != again.String() {
		t.Errorf("E16 not reproducible:\n--- first\n%s\n--- second\n%s", r, again)
	}
}

// TestRunObservedTraceDeterministic: the harness-level trace — one span
// per experiment merged in registry order — must be byte-identical at
// every worker count, and the registry must show the pool metrics.
func TestRunObservedTraceDeterministic(t *testing.T) {
	render := func(workers int) (string, []*Report) {
		rec := obs.New(nil)
		reports, err := RunObserved([]string{"E10", "E13", "E15"}, rec, par.Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Check(); err != nil {
			t.Fatalf("workers=%d: span invariants: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTree(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), reports
	}
	ref, reports := render(1)
	for _, id := range []string{"E10", "E13", "E15"} {
		if !strings.Contains(ref, id+" [") {
			t.Errorf("no span for %s:\n%s", id, ref)
		}
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, workers := range []int{2, 8} {
		got, _ := render(workers)
		if got != ref {
			t.Errorf("workers=%d trace diverges:\n--- serial\n%s\n--- par\n%s", workers, ref, got)
		}
	}
}

// TestAllDeterministic: the entire harness must be bit-for-bit reproducible
// (fixed seeds, no wall-clock dependence) so EXPERIMENTS.md can promise it —
// and the parallel fan-out must be byte-identical to the sequential
// reference, run twice so scheduling nondeterminism gets a chance to show.
func TestAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple harness runs in short mode")
	}
	ref, err := All(par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		opts []par.Option
	}{
		{"sequential-again", []par.Option{par.Workers(1)}},
		{"parallel-gomaxprocs", []par.Option{par.Workers(runtime.GOMAXPROCS(0))}},
		{"parallel-4", []par.Option{par.Workers(4)}},
		{"parallel-4-again", []par.Option{par.Workers(4)}},
	}
	for _, tc := range runs {
		run, opts := tc.name, tc.opts
		got, err := All(opts...)
		if err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: report counts differ: %d vs %d", run, len(got), len(ref))
		}
		for i := range ref {
			if got[i].String() != ref[i].String() {
				t.Errorf("%s: %s diverges from sequential reference:\n--- sequential\n%s\n--- %s\n%s",
					run, ref[i].ID, ref[i], run, got[i])
			}
		}
	}
}

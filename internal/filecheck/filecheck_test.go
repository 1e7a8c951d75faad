package filecheck

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cadinterop/internal/diag"
)

const goodV = "module m(a);\n  input a;\nendmodule\n"
const badV = "module m(a);\n  input a\nendmodule\nmodule ok; endmodule\n"

func TestCheckBytesDispatch(t *testing.T) {
	cases := []struct {
		name string
		data string
		ok   bool
	}{
		{"a.v", goodV, true},
		{"a.edf", "(edif d (cell c (interface) (primitive)))", true},
		{"a.cd", `(design d (grid "1/16in"))`, true},
		{"a.al", "(a (b c))", true},
		{"a.vl", "V vl 1\nD d 1/10in\n", true},
		{"bad.v", badV, false},
		{"a.nope", "", false},
	}
	for _, tc := range cases {
		_, err := CheckBytes(tc.name, []byte(tc.data), diag.Strict)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCheckBytesLenientRecovers(t *testing.T) {
	diags, err := CheckBytes("bad.v", []byte(badV), diag.Lenient)
	if err != nil {
		t.Fatalf("lenient check aborted: %v", err)
	}
	if diag.Count(diags, diag.Error) == 0 {
		t.Fatal("no diagnostics for malformed module")
	}
	// Diagnostics must be jumpable: source and position present.
	d := diags[0]
	if d.Source != "bad.v" || d.Pos.Line == 0 {
		t.Errorf("diagnostic not positioned: %v", d)
	}
}

// TestCheckBytesALLenientLimit: lenient a/L vetting obeys the collector's
// diagnostic limit like every other reader — a flood of stray close
// parens ends in the [limit] abort after diag.DefaultLimit diagnostics —
// and each kept diagnostic is positioned as diag.LineCol would place it.
func TestCheckBytesALLenientLimit(t *testing.T) {
	src := "(ok)\n" + strings.Repeat(") ; stray\n (fine) )\n", diag.DefaultLimit)
	diags, err := CheckBytes("flood.al", []byte(src), diag.Lenient)
	if !errors.Is(err, diag.ErrLimit) || !strings.Contains(fmt.Sprint(err), "[limit]") {
		t.Fatalf("err = %v, want the [limit] abort", err)
	}
	if len(diags) != diag.DefaultLimit {
		t.Fatalf("%d diagnostics, want %d", len(diags), diag.DefaultLimit)
	}
	for i, d := range diags {
		if want := diag.LineCol(src, d.Pos.Offset); d.Pos != want || d.Source != "flood.al" || d.Code != "parse" {
			t.Fatalf("diagnostic %d = %v at %+v, want %+v", i, d, d.Pos, want)
		}
	}
	if got, want := diags[1].Pos, (diag.Pos{Offset: 23, Line: 3, Col: 9}); got != want {
		t.Errorf("second diagnostic at %+v, want %+v", got, want)
	}
}

// writeCorpus lays down a mixed-format, mixed-health file set and returns
// the paths in lexical order.
func writeCorpus(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	corpus := map[string]string{
		"a_good.edf": "(edif d (cell c (interface) (primitive)))",
		"b_bad.edf":  "(edif d (cell c (interface)",
		"c_good.cd":  `(design d (grid "1/16in"))`,
		"d_good.vl":  "V vl 1\nD d 1/10in\n",
		"e_bad.v":    badV,
		"f_good.v":   goodV,
		"g_good.al":  "(a (b c))",
	}
	var paths []string
	for name, data := range corpus {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func TestFilesOptsIdenticalAcrossKnobs(t *testing.T) {
	// Jobs is a pure scheduling knob: for a fixed Mode the rendered output
	// and returned error never change.
	paths := writeCorpus(t)
	for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
		var ref strings.Builder
		refErr := FilesOpts(&ref, paths, Options{Mode: mode, Jobs: 1})
		for _, jobs := range []int{1, 4, 8} {
			var sb strings.Builder
			err := FilesOpts(&sb, paths, Options{Mode: mode, Jobs: jobs})
			if sb.String() != ref.String() {
				t.Fatalf("%s jobs=%d output diverged:\n--- ref ---\n%s--- got ---\n%s",
					mode, jobs, ref.String(), sb.String())
			}
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("%s jobs=%d err = %v, want %v", mode, jobs, err, refErr)
			}
		}
	}
}

func TestFilesOptsFirstErrorIsLowestPath(t *testing.T) {
	paths := writeCorpus(t)
	err := FilesOpts(io.Discard, paths, Options{Mode: diag.Strict, Jobs: 8})
	if err == nil {
		t.Fatal("strict run over bad files returned nil")
	}
	// b_bad.edf sorts before e_bad.v; parallel runs must still surface it.
	if !strings.Contains(err.Error(), "b_bad.edf") {
		t.Fatalf("first error = %v, want the lowest failing path b_bad.edf", err)
	}
}

// TestCheckFileOptsMatchesCheckBytes: a vet parses straight off the open
// file (CheckFileOpts) or from bytes already in memory (CheckBytes, the
// cache-miss path). The two must render identical output on damaged
// inputs of every format, lexically broken records included.
func TestCheckFileOptsMatchesCheckBytes(t *testing.T) {
	paths := writeCorpus(t)
	dir := filepath.Dir(paths[0])
	for name, data := range map[string]string{
		"h_resync.edf": `(edif e (cell top (interface) (contents (net good1) (net "bad\q") (net good2))) (design top))`,
		"i_resync.cd":  `(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (4 0)) (label "bad\q" (at 1 1)))))`,
		"j_stray.cd":   `) (design a (cell c))`,
		"k_bad.vl":     "V vl 1\nD d 1/10in\nZ bogus\n",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			fdiags, ferr := CheckFileOpts(p, Options{Mode: mode})
			ftext, ferr := render(p, mode, fdiags, ferr)
			bdiags, berr := CheckBytes(p, data, mode)
			btext, berr := render(p, mode, bdiags, berr)
			if ftext != btext {
				t.Errorf("%s %s: CheckFileOpts and CheckBytes differ:\n--- file ---\n%s--- bytes ---\n%s",
					filepath.Base(p), mode, ftext, btext)
			}
			if fmt.Sprint(ferr) != fmt.Sprint(berr) {
				t.Errorf("%s %s: CheckFileOpts err %v, CheckBytes err %v", filepath.Base(p), mode, ferr, berr)
			}
		}
	}
}

func TestFilesSummaryAndExit(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.v")
	bad := filepath.Join(dir, "bad.v")
	if err := os.WriteFile(good, []byte(goodV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(badV), 0o644); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := Files(&sb, []string{good, bad}, diag.Strict); err == nil {
		t.Error("strict run over a bad file returned nil (exit code would be 0)")
	}
	out := sb.String()
	if !strings.Contains(out, "good.v: ok") || !strings.Contains(out, "bad.v: FAILED") {
		t.Errorf("strict summary:\n%s", out)
	}

	sb.Reset()
	if err := Files(&sb, []string{good, bad}, diag.Lenient); err != nil {
		t.Errorf("lenient run aborted: %v", err)
	}
	if out := sb.String(); !strings.Contains(out, "bad.v: recovered") {
		t.Errorf("lenient summary:\n%s", out)
	}
}

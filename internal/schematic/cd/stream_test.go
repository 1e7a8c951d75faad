package cd

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/schematic"
)

// readEntryPoints reads data through every entry point of the one reader —
// ReadBytes, and ReadStream fed whole and one byte at a time, which
// stresses every window-edge refill — and fails the test unless all three
// return the same design, diagnostics and error.
func readEntryPoints(t *testing.T, data []byte, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	t.Helper()
	d, diags, err := ReadBytes(data, opts)
	for _, oneByte := range []bool{false, true} {
		var r io.Reader = bytes.NewReader(data)
		if oneByte {
			r = iotest.OneByteReader(r)
		}
		sd, sdiags, serr := ReadStream(r, opts)
		assertSameRead(t, fmt.Sprintf("ReadStream oneByte=%v vs ReadBytes", oneByte), d, diags, err, sd, sdiags, serr)
	}
	return d, diags, err
}

// assertStreamEquiv asserts that every entry point of the one reader
// returns what the frozen buffered reader (refread_test.go) returns.
func assertStreamEquiv(t *testing.T, data []byte, opts ReadOptions) {
	t.Helper()
	rd, rdiags, rerr := refReadBytes(data, opts)
	d, diags, err := readEntryPoints(t, data, opts)
	assertSameRead(t, "ReadBytes vs reference", rd, rdiags, rerr, d, diags, err)
}

// assertSameRead fails t unless two reads returned the same design,
// diagnostics and error text.
func assertSameRead(t testing.TB, label string, wd *schematic.Design, wdiags []diag.Diagnostic, werr error, gd *schematic.Design, gdiags []diag.Diagnostic, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: error mismatch:\nwant: %v\ngot:  %v", label, werr, gerr)
	}
	if !reflect.DeepEqual(wdiags, gdiags) {
		t.Fatalf("%s: diagnostics mismatch:\nwant:\n%s\ngot:\n%s", label, diag.Render(wdiags), diag.Render(gdiags))
	}
	if !reflect.DeepEqual(wd, gd) {
		t.Fatalf("%s: design mismatch:\nwant: %+v\ngot:  %+v", label, wd, gd)
	}
}

// TestStreamEquivalenceWritten: a full writer round trip reads back as the
// reference reads it, in both modes, with and without lint.
func TestStreamEquivalenceWritten(t *testing.T) {
	d := sampleDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
		for _, lint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/lint=%v", mode, lint), func(t *testing.T) {
				assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode, Lint: lint})
			})
		}
	}
}

// TestStreamEquivalenceHandwritten pins the diagnostic contract on inputs
// with semantic damage and structural oddities.
func TestStreamEquivalenceHandwritten(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// salvage: the input is lexically broken, so a lenient read
		// departs from the reference by contract (stream.go) and keeps
		// every intact record; the row pins that through ReadBytes.
		salvage bool
	}{
		{name: "empty", src: ""},
		{name: "comment-only", src: "; nothing\n"},
		{name: "lone-atom", src: "x"},
		{name: "empty-list", src: "()"},
		{name: "not-design", src: "(foo bar)"},
		{name: "design-too-short", src: "(design)"},
		{name: "two-forms", src: "(design a)(design b)"},
		{name: "design-bad-name", src: "(design (x))"},
		{name: "unexpected-atom-item", src: "(design a stray)"},
		{name: "unexpected-empty-item", src: "(design a ())"},
		{name: "unknown-form", src: "(design a (mystery 1))"},
		{name: "quoted-library", src: "(design a '(library l (symbol s v)))"},
		{name: "quoted-cell", src: "(design a '(cell c))"},
		{name: "quoted-page", src: "(design a (cell c '(page 1)))"},
		{name: "grid-no-name", src: "(design a (grid))"},
		{name: "bad-grid", src: `(design a (grid "1/7in"))`},
		{name: "good-grid", src: `(design a (grid "1/10in"))`},
		{name: "globals", src: `(design a (globals "VDD" "GND"))`},
		{name: "bad-global", src: "(design a (globals (x)))"},
		{name: "library-no-name", src: "(design a (library))"},
		{name: "library-bad-name", src: "(design a (library (x) (symbol s v)))"},
		{name: "bad-symbol", src: "(design a (library l (frob)))"},
		{name: "bad-pin", src: "(design a (library l (symbol s v (pin))))"},
		{name: "dup-symbol", src: "(design a (library l (symbol s v) (symbol s v)))"},
		{name: "cell-no-name", src: "(design a (cell))"},
		{name: "cell-bad-name", src: "(design a (cell (x) (port p input)))"},
		{name: "dup-cell", src: "(design a (cell c) (cell c))"},
		{name: "bad-cell-item", src: "(design a (cell c stray))"},
		{name: "unknown-cell-item", src: "(design a (cell c (widget 1)))"},
		{name: "bad-port", src: "(design a (cell c (port p)))"},
		{name: "bad-port-dir", src: "(design a (cell c (port p sideways)))"},
		{name: "empty-page", src: "(design a (cell c (page)))"},
		{name: "page-no-size", src: "(design a (cell c (page 1)))"},
		{name: "page-size", src: "(design a (cell c (page 1 (size 0 0 10 10))))"},
		{name: "page-bad-size", src: "(design a (cell c (page 1 (size 0 0 x 10))))"},
		{name: "page-short-size", src: "(design a (cell c (page 1 (size 0 0) (wire (0 0) (1 1)))))"},
		{name: "bad-page-item", src: "(design a (cell c (page 1 (size 0 0 9 9) stray)))"},
		{name: "unknown-page-item", src: "(design a (cell c (page 1 (size 0 0 9 9) (gizmo))))"},
		{name: "bad-inst", src: "(design a (cell c (page 1 (size 0 0 9 9) (inst))))"},
		{name: "bad-inst-of", src: "(design a (cell c (page 1 (size 0 0 9 9) (inst i (of l)))))"},
		{name: "bad-wire-point", src: "(design a (cell c (page 1 (size 0 0 9 9) (wire (0)))))"},
		{name: "bad-label", src: "(design a (cell c (page 1 (size 0 0 9 9) (label))))"},
		{name: "bad-conn", src: "(design a (cell c (page 1 (size 0 0 9 9) (conn pin))))"},
		{name: "bad-text", src: "(design a (cell c (page 1 (size 0 0 9 9) (text))))"},
		{name: "dangling-conn", src: `(design a (cell c (page 1 (size 0 0 9 9) (conn hier-in "p" (at 1 1) (of l s v) (orient R0)))))`},
		{name: "unbalanced-design", src: "(design a", salvage: true},
		{name: "unbalanced-page", src: "(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (1 1))", salvage: true},
		{name: "stray-close", src: ") (design a)", salvage: true},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				if mode == diag.Lenient && tc.salvage {
					assertSalvaged(t, []byte(tc.src), ReadOptions{Mode: mode})
					return
				}
				assertStreamEquiv(t, []byte(tc.src), ReadOptions{Mode: mode})
			})
		}
	}
}

// assertSalvaged asserts the lenient contract on a lexically broken input:
// where the reference salvages nothing, the one reader returns a design
// that validates, with error diagnostics naming the damage.
func assertSalvaged(t *testing.T, data []byte, opts ReadOptions) *schematic.Design {
	t.Helper()
	if rd, _, rerr := refReadBytes(data, opts); rd != nil || rerr == nil {
		t.Fatalf("reference salvaged the broken input: d=%v err=%v", rd, rerr)
	}
	d, diags, err := readEntryPoints(t, data, opts)
	if err != nil || d == nil {
		t.Fatalf("lenient read salvaged nothing: d=%v err=%v", d, err)
	}
	if verr := d.Validate(); verr != nil {
		t.Fatalf("salvaged design invalid: %v", verr)
	}
	if diag.Count(diags, diag.Error) == 0 {
		t.Fatal("salvaged read reported no damage")
	}
	return d
}

// TestStreamRecordResync pins the lenient contract on a lexically broken
// record: the reader resynchronizes at the record boundary and keeps every
// intact record, where the reference's toplevel-granular recovery
// salvages nothing.
func TestStreamRecordResync(t *testing.T) {
	src := `(design a (cell c (page 1 (size 0 0 9 9) (wire (0 0) (4 0)) (label "bad\q" (at 1 1)) (text "ok" (at 2 2)))))`
	opts := ReadOptions{Mode: diag.Lenient}

	if rd, _, rerr := refReadBytes([]byte(src), opts); rd != nil || rerr == nil {
		t.Fatalf("reference unexpectedly salvaged the broken input: d=%v err=%v", rd, rerr)
	}
	d, diags, err := readEntryPoints(t, []byte(src), opts)
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	pg := d.Cells["c"].Pages[0]
	if len(pg.Wires) != 1 || len(pg.Texts) != 1 {
		t.Errorf("salvage lost records: wires=%d texts=%d", len(pg.Wires), len(pg.Texts))
	}
	if diag.Count(diags, diag.Error) != 1 {
		t.Errorf("want exactly one parse diagnostic, got:\n%s", diag.Render(diags))
	}

	// A stray toplevel close paren: the reference's recovery consumes it
	// and the form after it, losing the design; the reader skips only the
	// paren.
	if d := assertSalvaged(t, []byte(") (design a (cell c))"), opts); d.Cells["c"] == nil {
		t.Error("salvage after a stray ) lost cell c")
	}
}

// TestStreamBoundedWindow: a schematic far larger than the scanner chunk
// parses with the window held near the chunk size.
func TestStreamBoundedWindow(t *testing.T) {
	d := schematic.NewDesign("big", geom.GridSixteenth)
	c := mustCell(d, "top")
	pg := c.AddPage(geom.R(0, 0, 1<<14, 1<<14))
	const n = 20000
	for i := 0; i < n; i++ {
		pg.Wires = append(pg.Wires, &schematic.Wire{Points: []geom.Point{
			geom.Pt(i, 0), geom.Pt(i, 100),
		}})
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	total := buf.Len()

	sd, _, stats, err := ReadStreamStats(bytes.NewReader(buf.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputBytes != int64(total) {
		t.Errorf("InputBytes = %d, want %d", stats.InputBytes, total)
	}
	if limit := 3 * 32 << 10; stats.MaxWindow > limit {
		t.Errorf("MaxWindow = %d, want <= %d (input %d bytes)", stats.MaxWindow, limit, total)
	}
	if stats.MaxWindow*4 > total {
		t.Errorf("MaxWindow = %d is not small relative to the %d-byte input", stats.MaxWindow, total)
	}
	if got := len(sd.Cells["top"].Pages[0].Wires); got != n {
		t.Errorf("wires = %d, want %d", got, n)
	}
}

package exchange

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/netlist"
)

// readEntryPoints reads data through every entry point of the one reader —
// ReadBytes, and ReadStream fed whole and one byte at a time, which
// stresses every window-edge refill path in the scanner — and fails the
// test unless all three return the same netlist, diagnostics and error.
func readEntryPoints(t *testing.T, data []byte, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	t.Helper()
	nl, diags, err := ReadBytes(data, opts)
	for _, oneByte := range []bool{false, true} {
		var r io.Reader = bytes.NewReader(data)
		if oneByte {
			r = iotest.OneByteReader(r)
		}
		sn, sd, serr := ReadStream(r, opts)
		assertSameRead(t, fmt.Sprintf("ReadStream oneByte=%v vs ReadBytes", oneByte), nl, diags, err, sn, sd, serr)
	}
	return nl, diags, err
}

// assertStreamEquiv asserts that every entry point of the one reader
// returns what the frozen buffered reader (refread_test.go) returns.
func assertStreamEquiv(t *testing.T, data []byte, opts ReadOptions) {
	t.Helper()
	rn, rd, rerr := refReadBytes(data, opts)
	nl, diags, err := readEntryPoints(t, data, opts)
	assertSameRead(t, "ReadBytes vs reference", rn, rd, rerr, nl, diags, err)
}

// assertSameRead fails t unless two reads returned the same netlist,
// diagnostics and error text.
func assertSameRead(t testing.TB, label string, wn *netlist.Netlist, wd []diag.Diagnostic, werr error, gn *netlist.Netlist, gd []diag.Diagnostic, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: error mismatch:\nwant: %v\ngot:  %v", label, werr, gerr)
	}
	if !reflect.DeepEqual(wd, gd) {
		t.Fatalf("%s: diagnostics mismatch:\nwant:\n%s\ngot:\n%s", label, diag.Render(wd), diag.Render(gd))
	}
	if !reflect.DeepEqual(wn, gn) {
		t.Fatalf("%s: netlist mismatch:\nwant: %+v\ngot:  %+v", label, wn, gn)
	}
}

// streamTestNetlist builds a netlist with renames (long names + NameLimit),
// globals, attributes and a hierarchy, exercising every record kind.
func streamTestNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New()
	buf, err := nl.AddCell("a_buffer_cell_with_a_long_name")
	if err != nil {
		t.Fatal(err)
	}
	buf.Primitive = true
	if err := buf.AddPort("input_port_long_name", netlist.Input); err != nil {
		t.Fatal(err)
	}
	if err := buf.AddPort("output_port_long_name", netlist.Output); err != nil {
		t.Fatal(err)
	}
	top, err := nl.AddCell("top_level_cell_long_name")
	if err != nil {
		t.Fatal(err)
	}
	clk := top.EnsureNet("global_clock_net_name")
	clk.Global = true
	clk.Attrs["class"] = "clock tree"
	for i := 0; i < 4; i++ {
		in := fmt.Sprintf("instance_number_%d_long", i)
		inst, err := top.AddInstance(in, "a_buffer_cell_with_a_long_name")
		if err != nil {
			t.Fatal(err)
		}
		inst.Attrs["placed at"] = fmt.Sprintf("row %d", i)
		if err := top.Connect(in, "input_port_long_name", fmt.Sprintf("internal_net_%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := top.Connect(in, "output_port_long_name", fmt.Sprintf("internal_net_%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	nl.Top = "top_level_cell_long_name"
	return nl
}

// TestStreamEquivalenceWritten: everything the writer can produce —
// trailers, renames, hints, VHDL-safe aliasing — reads back as the
// reference reads it, in both modes.
func TestStreamEquivalenceWritten(t *testing.T) {
	nl := streamTestNetlist(t)
	wopts := []WriteOptions{
		{},
		{Trailer: true},
		{Hints: true},
		{Trailer: true, Hints: true},
		{NameLimit: 10, Trailer: true},
		{VHDLSafe: true, NameLimit: 12, Trailer: true, Hints: true},
	}
	for _, wo := range wopts {
		var buf bytes.Buffer
		if err := Write(&buf, nl, wo); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("write%+v/%v", wo, mode), func(t *testing.T) {
				assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode})
				if wo.Trailer {
					assertStreamEquiv(t, buf.Bytes(), ReadOptions{Mode: mode, RequireTrailer: true})
				}
			})
		}
	}
}

// TestStreamEquivalenceHandwritten pins the diagnostic contract on inputs
// with semantic damage, structural oddities and integrity failures: the
// one reader must report what the reference reports, in the same order
// with the same positions, except where the contract departs from it.
func TestStreamEquivalenceHandwritten(t *testing.T) {
	valid := "(edif top\n  (cell top (interface (port a input))\n    (contents\n      (net n (global) (property k \"v\"))\n      (instance i (of top) (joined (a n)))\n    )\n  )\n  (design top)\n)\n"
	cases := []struct {
		name    string
		src     string
		require bool
		// In the mode these name, the one reader departs from the
		// reference by contract (stream.go), and the row pins the new
		// outcome through ReadBytes instead. firstFault: a strict read of
		// several faults aborts with this message, the first fault in
		// document order. salvage: a lenient read of a lexically broken
		// input keeps every intact record.
		firstFault string
		salvage    bool
	}{
		{name: "empty", src: ""},
		{name: "comment-only", src: "; nothing here\n"},
		{name: "lone-atom", src: "x\n"},
		{name: "lone-number", src: "42\n"},
		{name: "empty-list", src: "()\n"},
		{name: "not-edif", src: "(library foo)\n"},
		{name: "edif-too-short", src: "(edif)\n"},
		{name: "two-forms", src: "(edif a) (edif b)\n"},
		{name: "valid", src: valid},
		{name: "valid-required-missing", src: valid, require: true},
		{name: "unexpected-atom-item", src: "(edif e stray (cell c (interface)))\n"},
		{name: "unexpected-empty-item", src: "(edif e () (cell c (interface)))\n"},
		{name: "unknown-form", src: "(edif e (foo bar))\n"},
		{name: "quoted-item", src: "(edif e 'x)\n"},
		{name: "quoted-cell", src: "(edif e '(cell c (interface)))\n"},
		{name: "quoted-contents", src: "(edif e (cell c (interface) '(contents (net n))))\n"},
		{name: "design-no-name", src: "(edif e (design))\n"},
		{name: "design-bad-name", src: "(edif e (design (x)))\n"},
		{name: "cell-no-name", src: "(edif e (cell))\n"},
		{name: "cell-bad-name", src: "(edif e (cell (x) (interface)))\n"},
		{name: "cell-dup", src: "(edif e (cell c (interface)) (cell c (interface)))\n"},
		{name: "bad-cell-item", src: "(edif e (cell c stray))\n"},
		{name: "unknown-cell-item", src: "(edif e (cell c (wibble)))\n"},
		{name: "bad-port", src: "(edif e (cell c (interface (port p))))\n"},
		{name: "bad-port-fields", src: "(edif e (cell c (interface (port (p) input))))\n"},
		{name: "bad-port-dir", src: "(edif e (cell c (interface (port p sideways))))\n"},
		{name: "dup-port", src: "(edif e (cell c (interface (port p input) (port p output))))\n"},
		{name: "bad-contents-item", src: "(edif e (cell c (interface) (contents stray)))\n"},
		{name: "unknown-contents-item", src: "(edif e (cell c (interface) (contents (wire w))))\n"},
		{name: "net-no-name", src: "(edif e (cell c (interface) (contents (net))))\n"},
		{name: "net-bad-name", src: "(edif e (cell c (interface) (contents (net (n)))))\n"},
		{name: "instance-no-name", src: "(edif e (cell c (interface) (contents (instance))))\n"},
		{name: "instance-no-of", src: "(edif e (cell c (interface) (contents (instance i))))\n"},
		{name: "joined-before-of", src: "(edif e (cell c (interface) (contents (instance i (joined (a n)) (of c)))))\n"},
		{name: "property-before-of", src: "(edif e (cell c (interface) (contents (instance i (property k \"v\") (of c)))))\n"},
		{name: "bad-joined-pair", src: "(edif e (cell c (interface) (contents (instance i (of c) (joined (a))))))\n"},
		{name: "dangling-master", src: "(edif e (cell c (interface) (contents (instance i (of ghost)))))\n"},
		{name: "dangling-port", src: "(edif e (cell c (interface) (contents (net n) (instance i (of c) (joined (ghost n))))))\n"},
		{name: "dangling-top", src: "(edif e (design ghost))\n"},
		{name: "rename-bad", src: "(edif e (rename (x) \"orig\"))\n"},
		{name: "rename-short-ignored", src: "(edif e (rename x))\n"},
		{name: "rename-bad-then-cell-error", src: "(edif e (cell c (wibble)) (rename (x) \"orig\"))\n", firstFault: `<input>:1:17: error: [record] unknown cell item "wibble"`},
		{name: "rename-applied", src: "(edif e (cell c8 (interface (port p8 input))) (rename c8 \"a very long cell\") (rename p8 \"port(weird)\") (design c8))\n"},
		{name: "truncated-mid-record", src: valid[:strings.Index(valid, "(instance i")+20], salvage: true},
		{name: "truncated-between-records", src: valid[:strings.Index(valid, "(instance i")], salvage: true},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				opts := ReadOptions{Mode: mode, RequireTrailer: tc.require}
				switch {
				case mode == diag.Strict && tc.firstFault != "":
					_, _, err := readEntryPoints(t, []byte(tc.src), opts)
					if want := ErrFormat.Error() + ": " + tc.firstFault; err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %s", err, want)
					}
				case mode == diag.Lenient && tc.salvage:
					assertSalvaged(t, []byte(tc.src), opts)
				default:
					assertStreamEquiv(t, []byte(tc.src), opts)
				}
			})
		}
	}
}

// assertSalvaged asserts the lenient contract on a lexically broken input:
// where the reference salvages nothing, the one reader returns a netlist
// that validates, with error diagnostics naming the damage.
func assertSalvaged(t *testing.T, data []byte, opts ReadOptions) {
	t.Helper()
	if rn, _, rerr := refReadBytes(data, opts); rn != nil || rerr == nil {
		t.Fatalf("reference salvaged the broken input: nl=%v err=%v", rn, rerr)
	}
	nl, diags, err := readEntryPoints(t, data, opts)
	if err != nil || nl == nil {
		t.Fatalf("lenient read salvaged nothing: nl=%v err=%v", nl, err)
	}
	if verr := nl.Validate(); verr != nil {
		t.Fatalf("salvaged netlist invalid: %v", verr)
	}
	if diag.Count(diags, diag.Error) == 0 {
		t.Fatal("salvaged read reported no damage")
	}
}

// TestStreamEquivalenceIntegrity covers the trailer failure modes: bad
// checksum, malformed counts, incomplete manifest, manifest mismatch.
func TestStreamEquivalenceIntegrity(t *testing.T) {
	nl := streamTestNetlist(t)
	var good bytes.Buffer
	if err := Write(&good, nl, WriteOptions{Trailer: true}); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good.Bytes()...)
	corrupt[bytes.IndexByte(corrupt, 'c')] = 'k' // flip a body byte, keep it parseable

	body := func(trailer string) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, nl, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&buf, trailer+"\n", hex.EncodeToString(sum[:]))
		return buf.Bytes()
	}
	// counts is the true manifest, as the writer renders it after the
	// checksum: "cells=N ports=N ...".
	lines := strings.Split(strings.TrimSuffix(good.String(), "\n"), "\n")
	counts := strings.SplitN(lines[len(lines)-1], " ", 4)[3]
	hexSum := func(trailer string, edit func(string) string) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, nl, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&buf, trailer+"\n", edit(hex.EncodeToString(sum[:])))
		return buf.Bytes()
	}
	same := func(s string) string { return s }
	cases := []struct {
		name string
		data []byte
	}{
		{"checksum-mismatch", corrupt},
		{"malformed-count", body("; integrity sha256:%s cells=x ports=0 nets=0 insts=0 conns=0 attrs=0")},
		{"incomplete-manifest", body("; integrity sha256:%s cells=2")},
		{"manifest-mismatch", body("; integrity sha256:%s cells=99 ports=2 nets=6 insts=4 conns=8 attrs=5")},
		// White space and hex spelling: the reader splits fields on any
		// white space and wants the lowercase hex of the full checksum.
		{"tab-between-fields", hexSum("; integrity sha256:%s\t"+strings.Replace(counts, " ", "\t", 1), same)},
		{"double-space-between-fields", hexSum("; integrity sha256:%s  "+strings.Replace(counts, " ", "  ", 1), same)},
		{"uppercase-hex", hexSum("; integrity sha256:%s "+counts, strings.ToUpper)},
		{"short-hex", hexSum("; integrity sha256:%s "+counts, func(h string) string { return h[:32] })},
		{"no-hex-digits", hexSum("; integrity sha256:%s "+counts, func(string) string { return "" })},
	}
	for _, tc := range cases {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				assertStreamEquiv(t, tc.data, ReadOptions{Mode: mode})
			})
		}
	}
}

// TestStreamRecordResync pins the lenient contract on a lexically broken
// record: the reader resynchronizes at the record boundary and keeps
// every intact record, where the reference's toplevel-granular recovery
// quarantines the whole (edif ...) form and salvages nothing.
func TestStreamRecordResync(t *testing.T) {
	src := `(edif e (cell top (interface) (contents (net good1) (net "bad\q") (net good2) (instance i (of top)))) (design top))`
	opts := ReadOptions{Mode: diag.Lenient}

	if rn, _, rerr := refReadBytes([]byte(src), opts); rn != nil || rerr == nil {
		t.Fatalf("reference unexpectedly salvaged the broken input: nl=%v err=%v", rn, rerr)
	}

	sn, sd, serr := readEntryPoints(t, []byte(src), opts)
	if serr != nil {
		t.Fatalf("lenient read: %v", serr)
	}
	top, ok := sn.Cell("top")
	if !ok {
		t.Fatal("salvaged netlist lost cell top")
	}
	if got, want := top.NetNames(), []string{"good1", "good2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("salvaged nets = %v, want %v", got, want)
	}
	if _, ok := top.Instances["i"]; !ok {
		t.Error("salvaged netlist lost the instance after the damage")
	}
	if diag.Count(sd, diag.Error) != 1 {
		t.Errorf("want exactly one parse diagnostic for the damaged record, got:\n%s", diag.Render(sd))
	}
}

// TestStreamBoundedWindow: parsing a design far larger than the scanner
// chunk must keep the parse window near the chunk size — the bounded
// memory claim — while producing the same netlist as the reference.
func TestStreamBoundedWindow(t *testing.T) {
	nl := netlist.New()
	leaf, _ := nl.AddCell("leaf")
	leaf.Primitive = true
	leaf.AddPort("a", netlist.Input)
	leaf.AddPort("y", netlist.Output)
	top, _ := nl.AddCell("chip")
	const n = 20000
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("u%05d", i)
		top.AddInstance(in, "leaf")
		top.Connect(in, "a", fmt.Sprintf("net%05d", i))
		top.Connect(in, "y", fmt.Sprintf("net%05d", i+1))
	}
	nl.Top = "chip"
	var buf bytes.Buffer
	if err := Write(&buf, nl, WriteOptions{Trailer: true, Hints: true}); err != nil {
		t.Fatal(err)
	}
	total := buf.Len()

	sn, _, stats, err := ReadStreamStats(bytes.NewReader(buf.Bytes()), ReadOptions{RequireTrailer: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputBytes != int64(total) {
		t.Errorf("InputBytes = %d, want %d", stats.InputBytes, total)
	}
	// The window should hold at most ~two read chunks (a record never
	// spans more); the whole input is an order of magnitude larger.
	if limit := 3 * 32 << 10; stats.MaxWindow > limit {
		t.Errorf("MaxWindow = %d, want <= %d (input %d bytes)", stats.MaxWindow, limit, total)
	}
	if stats.MaxWindow*4 > total {
		t.Errorf("MaxWindow = %d is not small relative to the %d-byte input", stats.MaxWindow, total)
	}

	bn, _, berr := refReadBytes(buf.Bytes(), ReadOptions{RequireTrailer: true})
	if berr != nil {
		t.Fatal(berr)
	}
	if !reflect.DeepEqual(bn, sn) {
		t.Fatal("netlist differs from the reference on the large design")
	}
}

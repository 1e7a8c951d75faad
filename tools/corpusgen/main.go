// Command corpusgen regenerates the committed fuzz seed corpora under each
// parser package's testdata/fuzz/FuzzParse/ directory, the journal's and
// the integrity frame's. Seeds are a mix of handwritten pathological
// inputs, rich valid sources produced by the writers, stored files from
// the golden corpus (testdata/golden/disk), and the discovery harness's
// promoted minimized reproducers (internal/discover/testdata/corpus), so
// `go test -fuzz` starts from both shores of the input space plus every
// known-interesting boundary case.
// Run from the repository root: go run ./tools/corpusgen
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"cadinterop/internal/discover"
	"cadinterop/internal/exchange"
	"cadinterop/internal/geom"
	"cadinterop/internal/journal/journaltest"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
)

// corpusBody encodes one seed in the `go test fuzz v1` corpus format.
// asString selects string(...) (for parsers taking string) vs []byte(...).
func corpusBody(data string, asString bool) string {
	form := "[]byte(%s)\n"
	if asString {
		form = "string(%s)\n"
	}
	return "go test fuzz v1\n" + fmt.Sprintf(form, strconv.Quote(data))
}

func write(dir string, n int, data string, asString bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := corpusBody(data, asString)
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", n)), []byte(body), 0o644)
}

// writeDeduped writes a named seed unless some file in dir already holds
// byte-identical content — rerunning corpusgen after new promotions must
// only add seeds that genuinely cover new input shapes, never duplicates
// under a second name.
func writeDeduped(dir, name, data string, asString bool) error {
	body := []byte(corpusBody(data, asString))
	sum := sha256.Sum256(body)
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if sha256.Sum256(b) == sum {
			return nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), body, 0o644)
}

// ingestDiscovered renders every promoted discovery reproducer through the
// writer for its format and seeds the corresponding parser corpus. Names
// carry the catalogue signature (seed-disc-<sig8>) so a seed traces back
// to its catalogue entry; the seed- prefix also keeps them outside the
// .gitignore pattern that hides fuzzer-found hex-named inputs. Flow
// subjects are parametric — no parser surface to seed — and are skipped.
func ingestDiscovered(dir string) error {
	cases, err := discover.LoadCorpus(dir)
	if err != nil {
		return err
	}
	for _, c := range cases {
		subj, err := discover.DecodeSubject(c.Kind, []byte(c.Subject))
		if err != nil {
			return err
		}
		sig := c.Signature
		if len(sig) > 8 {
			sig = sig[:8]
		}
		name := "seed-disc-" + sig
		switch s := subj.(type) {
		case *discover.SchematicSubject:
			var vb, cb bytes.Buffer
			if err := vl.Write(&vb, s.D); err != nil {
				return err
			}
			if err := cd.Write(&cb, s.D); err != nil {
				return err
			}
			if err := writeDeduped("internal/schematic/vl/testdata/fuzz/FuzzParse", name, vb.String(), false); err != nil {
				return err
			}
			if err := writeDeduped("internal/schematic/cd/testdata/fuzz/FuzzParse", name, cb.String(), false); err != nil {
				return err
			}
		case *discover.NetlistSubject:
			var b bytes.Buffer
			if err := exchange.Write(&b, s.NL, exchange.WriteOptions{Trailer: true}); err != nil {
				return err
			}
			if err := writeDeduped("internal/exchange/testdata/fuzz/FuzzParse", name, b.String(), false); err != nil {
				return err
			}
		case *discover.HDLSubject:
			if err := writeDeduped("internal/hdl/testdata/fuzz/FuzzParse", name, s.Src, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleNetlist mirrors the exchange package's test sample: awkward names,
// attributes, globals and a primitive cell.
func sampleNetlist() (*netlist.Netlist, error) {
	nl := netlist.New()
	inv, err := nl.AddCell("INV")
	if err != nil {
		return nil, err
	}
	inv.Primitive = true
	inv.AddPort("A", netlist.Input)
	inv.AddPort("Y", netlist.Output)
	top, err := nl.AddCell("top_level_module_with_a_long_name")
	if err != nil {
		return nil, err
	}
	top.AddPort("in", netlist.Input)
	top.AddPort("out", netlist.Output)
	top.EnsureNet("in")
	top.EnsureNet("out")
	vdd := top.EnsureNet("VDD")
	vdd.Global = true
	vdd.Attrs["voltage"] = "3.3"
	u0, _ := top.AddInstance("u0", "INV")
	_ = u0
	top.Connect("u0", "A", "in")
	top.Connect("u0", "Y", "out")
	nl.Top = "top_level_module_with_a_long_name"
	return nl, nil
}

// sampleSchematic mirrors the vl/cd packages' test sample design.
func sampleSchematic() (*schematic.Design, error) {
	d := schematic.NewDesign("sample", geom.GridTenth)
	d.Globals = []string{"VDD", "GND"}
	lib := d.EnsureLibrary("std")
	sym := &schematic.Symbol{
		Name: "nand2", View: "sym", Body: geom.R(0, 0, 4, 4),
		Pins: []schematic.SymbolPin{
			{Name: "A", Pos: geom.Pt(0, 0), Dir: netlist.Input},
			{Name: "Y", Pos: geom.Pt(4, 0), Dir: netlist.Output},
		},
	}
	if err := lib.AddSymbol(sym); err != nil {
		return nil, err
	}
	c, err := d.AddCell("top")
	if err != nil {
		return nil, err
	}
	c.Ports = []netlist.Port{{Name: "in", Dir: netlist.Input}}
	pg := c.AddPage(geom.R(0, 0, 110, 85))
	inst := &schematic.Instance{
		Name: "u1", Sym: schematic.SymbolKey{Lib: "std", Name: "nand2", View: "sym"},
		Placement: geom.Transform{Orient: geom.R90, Offset: geom.Pt(10, 20)},
	}
	if err := pg.AddInstance(inst); err != nil {
		return nil, err
	}
	pg.Wires = append(pg.Wires, &schematic.Wire{Points: []geom.Point{geom.Pt(4, 10), geom.Pt(10, 10), geom.Pt(10, 20)}})
	pg.Labels = append(pg.Labels, &schematic.Label{Text: "A<0:15>-", At: geom.Pt(4, 10), Size: 8, Offset: geom.Pt(0, 1)})
	d.Top = "top"
	return d, nil
}

const hdlSeed = `module unit(a, b, sel, y);
  input a, b, sel;
  output y;
  wire [3:0] t;
  reg r;
  assign t = {a, b, ~a & b, a ^ b};
  assign y = sel ? t[0] : (a | b);
  always @(posedge sel or negedge a)
    if (a) r <= 1'b1;
    else begin
      r <= 4'hA;
    end
endmodule`

const alSeed = `(define (transform name value)
  (map (lambda (p)
         (let ((kv (string-split p ":")))
           (list (string-append "m_" (car kv)) (nth 1 kv))))
       (string-split value " ")))
(list 1 2.5 -3 "str \" escaped" (quote (a b c)))`

func run() error {
	// a/L and hdl take string fuzz arguments.
	for i, s := range []string{alSeed, "(a b (c))", "'(quote . 1)", "((((((((((", `("unterminated`} {
		if err := write("internal/al/testdata/fuzz/FuzzParse", i+1, s, true); err != nil {
			return err
		}
	}
	hdlSeeds := []string{
		hdlSeed,
		"module m; endmodule",
		"module m(a); input a; assign a = 1'bx; endmodule",
		"module \\esc~id (x); inout x; endmodule",
		"/* unterminated",
		"module m; initial $display(\"hi\", 4'd12); endmodule",
	}
	for i, s := range hdlSeeds {
		if err := write("internal/hdl/testdata/fuzz/FuzzParse", i+1, s, true); err != nil {
			return err
		}
	}

	// exchange, vl and cd take []byte fuzz arguments.
	nl, err := sampleNetlist()
	if err != nil {
		return err
	}
	var exbuf bytes.Buffer
	if err := exchange.Write(&exbuf, nl, exchange.WriteOptions{NameLimit: 12, VHDLSafe: true, Trailer: true}); err != nil {
		return err
	}
	exSeeds := []string{
		exbuf.String(),
		"(edif (cell INV (interface (port A input) (port Y output)) (primitive)))",
		"(edif",
		";\n",
	}
	for i, s := range exSeeds {
		if err := write("internal/exchange/testdata/fuzz/FuzzParse", i+1, s, false); err != nil {
			return err
		}
	}

	d, err := sampleSchematic()
	if err != nil {
		return err
	}
	var vlbuf, cdbuf bytes.Buffer
	if err := vl.Write(&vlbuf, d); err != nil {
		return err
	}
	if err := cd.Write(&cdbuf, d); err != nil {
		return err
	}
	vlSeeds := []string{vlbuf.String(), "DESIGN d 10\n", "|no design line\n"}
	for i, s := range vlSeeds {
		if err := write("internal/schematic/vl/testdata/fuzz/FuzzParse", i+1, s, false); err != nil {
			return err
		}
	}
	cdSeeds := []string{cdbuf.String(), "(design d (grid 10))", "(design"}
	for i, s := range cdSeeds {
		if err := write("internal/schematic/cd/testdata/fuzz/FuzzParse", i+1, s, false); err != nil {
			return err
		}
	}

	// journal replay seeds: the fixture's complete reference journal plus
	// the failure shapes recovery must absorb — a mid-record truncation (a
	// torn tail from a crash during append), a clean record-boundary
	// prefix, a single flipped byte (disk damage), and trailer trivia.
	_, ref, err := journaltest.Reference()
	if err != nil {
		return err
	}
	flipped := append([]byte(nil), ref...)
	flipped[len(flipped)/2] ^= 0x01
	jSeeds := []string{
		string(ref),
		string(ref[:len(ref)/2]),
		string(ref) + `{"k":"attempt","t":"torn`,
		string(flipped),
		"payload\n; wal sha256:deadbeef bytes=7 seq=1\n",
		"\n\n",
	}
	for i, s := range jSeeds {
		if err := write("internal/journal/testdata/fuzz/FuzzJournalReplay", i+1, s, false); err != nil {
			return err
		}
	}

	// frame seeds: stored files from the golden corpus.
	for i, name := range []string{"memo/54479b1690f2e713d04cca0c985934f002f42bc626e72a3e6a4531328e383204", "requests.wal", "scale40-seed7-hints.edf"} {
		data, err := os.ReadFile(filepath.Join("testdata/golden/disk", name))
		if err != nil {
			return err
		}
		if err := write("internal/frame/testdata/fuzz/FuzzFrame", i+1, string(data), false); err != nil {
			return err
		}
	}

	return ingestDiscovered("internal/discover/testdata/corpus")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
}

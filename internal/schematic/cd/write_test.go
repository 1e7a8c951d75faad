package cd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/migrate"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
	"cadinterop/internal/workgen"
)

// assertWriteEquiv fails t unless Write renders d to exactly the bytes
// the frozen fmt-based writer (refwrite_test.go) renders.
func assertWriteEquiv(t *testing.T, label string, d *schematic.Design) {
	t.Helper()
	var want, got bytes.Buffer
	if err := refWrite(&want, d); err != nil {
		t.Fatalf("%s: reference write: %v", label, err)
	}
	if err := Write(&got, d); err != nil {
		t.Fatalf("%s: Write: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		w, g := want.String(), got.String()
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		t.Fatalf("%s: Write departs from the reference at byte %d of %d:\nwant: %q\ngot:  %q",
			label, i, len(w), w[i:min(len(w), i+80)], g[i:min(len(g), i+80)])
	}
}

// TestWriteMatchesReferenceGenerated: the designs /v1/migrate and
// schemig -gen build, before and after migration, write as the reference
// writes them. The source's bytes are the migration cache key.
func TestWriteMatchesReferenceGenerated(t *testing.T) {
	for _, gen := range []int{0, 1, 10, 60, 100, 150, 400} {
		for _, seed := range []int64{1, 2, 3} {
			w := workgen.Schematic(workgen.SchematicOptions{Instances: gen, Pages: 1 + gen/60, Seed: seed})
			assertWriteEquiv(t, fmt.Sprintf("gen %d seed %d source", gen, seed), w.Design)
			out, _, err := migrate.Migrate(w.Design, w.MigrateOptions())
			if err != nil {
				t.Fatalf("gen %d seed %d: %v", gen, seed, err)
			}
			assertWriteEquiv(t, fmt.Sprintf("gen %d seed %d migrated", gen, seed), out)
		}
	}
}

// TestWriteMatchesReferenceCorpus: every committed cd input a lenient
// read accepts — the check corpus and the fuzz seeds — writes back as the
// reference writes it.
func TestWriteMatchesReferenceCorpus(t *testing.T) {
	checked, _ := filepath.Glob("../../../testdata/check/*.cd")
	seeds, _ := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if len(checked) == 0 || len(seeds) == 0 {
		t.Fatalf("found %d check inputs and %d fuzz seeds", len(checked), len(seeds))
	}
	inputs := map[string][]byte{}
	for _, path := range checked {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = data
	}
	for _, path := range seeds {
		inputs[path] = fuzzSeedInput(t, path)
	}
	accepted := 0
	for path, data := range inputs {
		d, _, err := ReadBytes(data, ReadOptions{Mode: diag.Lenient, Source: path})
		if err != nil {
			continue
		}
		accepted++
		assertWriteEquiv(t, path, d)
	}
	t.Logf("a lenient read accepted %d of %d inputs", accepted, len(inputs))
	if accepted == 0 {
		t.Fatal("a lenient read accepted no input, so nothing was compared")
	}
}

// fuzzSeedInput decodes one `go test fuzz v1` corpus file holding a
// single []byte input.
func fuzzSeedInput(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n")
	lit, ok2 := strings.CutPrefix(strings.TrimSpace(body), "[]byte(")
	lit, ok3 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if !ok || !ok2 || !ok3 || err != nil {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	return []byte(s)
}

// quotingDesign reaches every branch of the writer: names that need
// quoting for each character that forces it, and the empty name;
// non-ASCII and control bytes in strings; negative coordinates; visible
// and hidden properties; globals; and enum values out of range.
func quotingDesign() *schematic.Design {
	names := []string{"", "a b", "a(b", "a)b", `a"b`, "a'b", "a;b", "a\tb", "a\nb", "plain", "µ-ohm", "ctl\x01\x7f"}
	d := schematic.NewDesign("my design", geom.Grid{Name: "1/7in \"odd\"\x00"})
	d.Globals = []string{"VDD", "", "gnd!\n", "ünï"}
	for i, n := range names {
		lib := d.EnsureLibrary(n)
		sym := &schematic.Symbol{
			Name: n, View: names[(i+1)%len(names)], Body: geom.R(-4, -8, 4, 0),
			Pins: []schematic.SymbolPin{
				{Name: n, Pos: geom.Pt(-1, 2), Dir: netlist.Inout},
				{Name: "x", Pos: geom.Pt(0, -3), Dir: netlist.PortDir(200)},
			},
			Props: []schematic.Property{
				{Name: n, Value: "v\x02\"é", Visible: true, At: geom.Pt(-5, 5), Size: -1},
				{Name: "hidden", Value: n},
			},
		}
		if err := lib.AddSymbol(sym); err != nil {
			panic(err)
		}
	}
	for i, n := range names {
		c := mustCell(d, n)
		c.Ports = []netlist.Port{{Name: n, Dir: netlist.Output}, {Name: "q", Dir: netlist.PortDir(9)}}
		pg := c.AddPage(geom.R(-100, -50, 100, 50))
		pg.Index = -i
		key := schematic.SymbolKey{Lib: n, Name: names[(i+2)%len(names)], View: n}
		for j, in := range []string{n, n + "2"} {
			if err := pg.AddInstance(&schematic.Instance{
				Name: in, Sym: key,
				Placement: geom.Transform{Orient: geom.Orientation(j * 250), Offset: geom.Pt(-i, -j)},
				Props:     []schematic.Property{{Name: in, Value: "\t", Visible: j == 0, At: geom.Pt(-1, -1)}},
			}); err != nil {
				panic(err)
			}
		}
		pg.Wires = append(pg.Wires, &schematic.Wire{}, &schematic.Wire{Points: []geom.Point{geom.Pt(-3, 0), geom.Pt(-3, -7), geom.Pt(0, -7)}})
		pg.Labels = append(pg.Labels, &schematic.Label{Text: n, At: geom.Pt(-2, 2), Size: -10, Offset: geom.Pt(0, -1)})
		pg.Conns = append(pg.Conns,
			&schematic.Connector{Kind: schematic.ConnGlobal, Name: n, At: geom.Pt(-9, 9), Sym: key, Orient: geom.MY},
			&schematic.Connector{Kind: schematic.ConnKind(77), Name: "\u2028", Sym: key, Orient: geom.Orientation(99)})
		pg.Texts = append(pg.Texts, &schematic.Text{S: n + "\x1b[0m", At: geom.Pt(-1, -2), SizePts: -3, BaselineOffset: -4})
	}
	return d
}

// TestWriteMatchesReferenceQuoting: the hand-built design that reaches
// every quoting branch writes as the reference writes it.
func TestWriteMatchesReferenceQuoting(t *testing.T) {
	assertWriteEquiv(t, "quoting design", quotingDesign())
	assertWriteEquiv(t, "sample design", sampleDesign(t))
	assertWriteEquiv(t, "empty design", schematic.NewDesign("", geom.GridTenth))
}

// failAfter accepts n bytes, then fails every write with errFailAfter.
type failAfter struct{ n int }

var errFailAfter = errors.New("write budget spent")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errFailAfter
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteErrorMatchesReference: for a writer that fails after N bytes,
// Write returns what the reference returns — the writer's error once the
// design outgrows the budget, nil otherwise.
func TestWriteErrorMatchesReference(t *testing.T) {
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 100, Pages: 2, Seed: 42})
	var full bytes.Buffer
	if err := refWrite(&full, w.Design); err != nil {
		t.Fatal(err)
	}
	size := full.Len()
	for _, n := range []int{0, 1, 255, 4095, 4096, 4097, 10000, size - 1, size, size + 1} {
		want := refWrite(&failAfter{n}, w.Design)
		got := Write(&failAfter{n}, w.Design)
		if got != want {
			t.Errorf("fail after %d of %d bytes: Write = %v, reference = %v", n, size, got, want)
		}
		if (want != nil) != (n < size) {
			t.Errorf("fail after %d of %d bytes: reference = %v", n, size, want)
		}
	}
}

package al

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// The reader must return exactly what the reference reader
// (refparse_test.go) returns: the same values, position trees and error
// texts from ParseTracked and Scanner.ReadForm, and the same forms and
// reported (offset, message) sequence from ParseRecover.

// sameValue compares type and Repr, recursing into lists so a nil list and
// an empty one, and each element's type, are told apart.
func sameValue(a, b Value) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	la, ok := a.(List)
	if !ok {
		return a.Repr() == b.Repr()
	}
	lb := b.(List)
	if (la == nil) != (lb == nil) || len(la) != len(lb) {
		return false
	}
	for i := range la {
		if !sameValue(la[i], lb[i]) {
			return false
		}
	}
	return true
}

func sameTree(a, b *PosTree) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Off != b.Off || (a.Kids == nil) != (b.Kids == nil) || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !sameTree(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func sameForms(av, bv []Value, at, bt []*PosTree) bool {
	if len(av) != len(bv) || len(at) != len(bt) {
		return false
	}
	for i := range av {
		if !sameValue(av[i], bv[i]) || !sameTree(at[i], bt[i]) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pieceReader returns at most k bytes per Read, so the scanner's window
// edge falls inside tokens, strings and comments.
type pieceReader struct {
	s string
	k int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if r.s == "" {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.k)], r.s)
	r.s = r.s[n:]
	return n, nil
}

// scanAll reads src form by form through a Scanner fed k bytes at a time,
// compacting after each form so offsets must survive the window moving.
func scanAll(src string, k int) ([]Value, []*PosTree, error) {
	sc := NewScanner(&pieceReader{s: src, k: k})
	var vs []Value
	var ts []*PosTree
	for {
		tok, _, err := sc.Peek()
		if err != nil {
			return nil, nil, err
		}
		if tok == "" {
			return vs, ts, nil
		}
		v, pt, err := sc.ReadForm()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, v)
		ts = append(ts, pt)
		sc.Compact()
	}
}

// checkEquiv compares every entry point on src against the reference and
// returns a description of the first difference, "" when there is none.
func checkEquiv(src string, k int) string {
	rv, rt, rerr := refParseTracked(src)
	v, pt, err := ParseTracked(src)
	if errText(err) != errText(rerr) || !sameForms(v, rv, pt, rt) {
		return fmt.Sprintf("ParseTracked: got %q, want %q", errText(err), errText(rerr))
	}
	sv, st, serr := scanAll(src, k)
	if errText(serr) != errText(rerr) || !sameForms(sv, rv, st, rt) {
		return fmt.Sprintf("Scanner (%d-byte reads): got %q, want %q", k, errText(serr), errText(rerr))
	}
	var got, want []string
	gv, gt := ParseRecover(src, func(off int, msg string) { got = append(got, fmt.Sprint(off, " ", msg)) })
	wv, wt := refParseRecover(src, func(off int, msg string) { want = append(want, fmt.Sprint(off, " ", msg)) })
	if !reflect.DeepEqual(got, want) || !sameForms(gv, wv, gt, wt) {
		return fmt.Sprintf("ParseRecover: reported %q, want %q", got, want)
	}
	return ""
}

// atoms is the generator's vocabulary: ParseFloat's edge cases on both
// sides of mayBeNumber, strings with good and bad escapes, and the
// punctuation and comments that steer recovery.
var atoms = []string{
	"inf", "-Infinity", "nan", "+nan", "1e5", ".5", "0x1p-2", "1_0", "-", "+",
	"INF", "+inf", "-inf", "NaN", "-nan", "infinity", "Infinit", "infx", "nanx",
	"0", "42", "-3", "2.5", "1e400", "-1e-400", "0x", "0x_1p0", "1__0", "1e", "e5",
	".", "+.", "-.5", "5.", "0b101", "0o17", "1_000.5", "١",
	"a", "foo", "n0000010", "define", "quote", "#t", "#f", "#x", "a.b", "-x", "+y",
	`""`, `"abc"`, `"a\"b"`, `"\\"`, `"\q"`, `"\x41"`, `"é"`, `"tab\there"`,
	"\"a\nb\"", `"\q unterminated list"`, `"unexpected end of input \z"`,
	"(", "(", "(", ")", ")", ")", "'", "'", "()", "'()",
	"; comment\n", ";", "\n", "\t", "\r\n",
}

// genSrc is a random reader input for testing/quick.
type genSrc string

func (genSrc) Generate(r *rand.Rand, size int) reflect.Value {
	var b strings.Builder
	n := r.Intn(2*size + 1)
	for i := 0; i < n; i++ {
		switch x := r.Intn(400); {
		case x == 0: // nesting at MaxDepth, balanced or not
			d := MaxDepth - 1 + r.Intn(4)
			for j := 0; j < d; j++ {
				if r.Intn(50) == 0 {
					b.WriteByte('\'')
				}
				b.WriteByte('(')
			}
			b.WriteString(atoms[r.Intn(len(atoms))])
			b.WriteString(strings.Repeat(")", d-r.Intn(2)))
		case x <= 10: // an unterminated string, which eats the rest
			b.WriteString(`"never closed \`[:1+r.Intn(15)])
		default:
			b.WriteString(atoms[r.Intn(len(atoms))])
		}
		if r.Intn(4) != 0 {
			b.WriteString([]string{" ", " ", "\n", "\t", "  "}[r.Intn(5)])
		}
	}
	return reflect.ValueOf(genSrc(b.String()))
}

func TestQuickParseEquivalence(t *testing.T) {
	f := func(src genSrc, k uint8) bool {
		if d := checkEquiv(string(src), 1+int(k%8)); d != "" {
			t.Logf("input %q: %s", src, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestParseEquivalenceSeeds runs every prefix of every committed FuzzParse
// seed of the three s-expression readers, plus hand-picked edge cases.
func TestParseEquivalenceSeeds(t *testing.T) {
	var srcs []string
	for _, dir := range []string{".", "../exchange", "../schematic/cd"} {
		files, err := filepath.Glob(filepath.Join(dir, "testdata/fuzz/FuzzParse/*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no seed corpus under %s: %v", dir, err)
		}
		for _, f := range files {
			srcs = append(srcs, readSeed(t, f))
		}
	}
	srcs = append(srcs, alSweepSrc, "(a) ) (b \"c\\q\") (d (e) f) (g")
	for _, src := range srcs {
		for end := 0; end <= len(src); end++ {
			if d := checkEquiv(src[:end], 1+end%5); d != "" {
				t.Fatalf("input %q: %s", src[:end], d)
			}
		}
	}
	// At MaxDepth, whole inputs only: the scanner re-parses its window on
	// every refill, so a prefix sweep here would take minutes.
	deep, deeper := strings.Repeat("(", MaxDepth), strings.Repeat("(", MaxDepth+1)
	for _, src := range []string{
		deep + "x" + strings.Repeat(")", MaxDepth),
		deeper + "x" + strings.Repeat(")", MaxDepth+1),
		deeper + "  (x",
		deeper + ` "unterminated`,
		deeper + `"\q"`,
		deep + "'x",
		deep + "'  \"open",
		strings.Repeat("'", MaxDepth+1) + "x",
		strings.Repeat("'", MaxDepth+2) + "x",
		deeper + "x ; comment\n)",
	} {
		if d := checkEquiv(src, 512); d != "" {
			t.Fatalf("input %.40q...: %s", src, d)
		}
	}
}

// readSeed decodes one file of Go's fuzz corpus format holding a single
// string or []byte argument.
func readSeed(t *testing.T, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	arg := lines[1]
	for _, p := range []string{"string(", "[]byte("} {
		arg = strings.TrimPrefix(arg, p)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// TestParsedListsDoNotAlias: lists and Kids slices come out of shared
// arena chunks, so each must be capped at its length. Appending to any
// parsed list, or to any node's Kids, must leave every other parsed value
// and position tree as it was — also across the forms a Scanner reads
// into one arena.
func TestParsedListsDoNotAlias(t *testing.T) {
	src := "(a (b c) (d (e f) g) '(h i) () (j)) (k l) (m (n))"
	wantV, wantT, _ := refParseTracked(src)
	pv, pt, perr := ParseTracked(src)
	sv, st, serr := scanAll(src, 3)
	for _, got := range []struct {
		name string
		vs   []Value
		ts   []*PosTree
		err  error
	}{{"ParseTracked", pv, pt, perr}, {"Scanner", sv, st, serr}} {
		if got.err != nil {
			t.Fatalf("%s: %v", got.name, got.err)
		}
		var lists []List
		var walk func(v Value)
		walk = func(v Value) {
			if l, ok := v.(List); ok {
				lists = append(lists, l)
				for _, e := range l {
					walk(e)
				}
			}
		}
		var nodes []*PosTree
		var walkT func(p *PosTree)
		walkT = func(p *PosTree) {
			nodes = append(nodes, p)
			for _, k := range p.Kids {
				walkT(k)
			}
		}
		for i := range got.vs {
			walk(got.vs[i])
			walkT(got.ts[i])
		}
		for _, l := range lists {
			_ = append(l, Symbol("intruder"), Symbol("intruder"))
		}
		for _, p := range nodes {
			_ = append(p.Kids, &PosTree{Off: -7})
		}
		if !sameForms(got.vs, wantV, got.ts, wantT) {
			t.Fatalf("%s: appending to one parsed list changed another", got.name)
		}
	}
}

package al

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// run evaluates src in a fresh environment, failing the test on error.
func run(t *testing.T, src string) Value {
	t.Helper()
	v, err := Run(src, NewEnv())
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

// runErr evaluates src expecting an error.
func runErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Run(src, NewEnv())
	if err == nil {
		t.Fatalf("Run(%q): expected error", src)
	}
	return err
}

func TestParseAtoms(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"42", Num(42)},
		{"-3.5", Num(-3.5)},
		{`"hi there"`, Str("hi there")},
		{"#t", Bool(true)},
		{"#f", Bool(false)},
		{"foo-bar", Symbol("foo-bar")},
		{"()", List(nil)},
	}
	for _, c := range cases {
		got, err := ParseOne(c.src)
		if err != nil {
			t.Errorf("ParseOne(%q): %v", c.src, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("ParseOne(%q) = %s, want %s", c.src, got.Repr(), c.want.Repr())
		}
	}
}

// TestMayBeNumberCoversParseFloat: mayBeNumber must hold wherever
// strconv.ParseFloat succeeds, or a number would read as a symbol. The
// table has each word ParseFloat accepts in mixed case and under both
// signs, and Unicode look-alikes whose first byte is not ASCII, which
// ParseFloat rejects and mayBeNumber must reject on that byte.
func TestMayBeNumberCoversParseFloat(t *testing.T) {
	for _, tok := range []string{
		"0", "42", "-3", "+2.5", ".5", "-.5", "5.", "1e5", "1e400", "-1e-400", "0x1p-2", "1_0",
		"inf", "Inf", "INF", "+inf", "-Inf", "infinity", "Infinity", "-INFINITY", "+infinity",
		"nan", "NaN", "NAN", "nAn", "+nan", "-NaN", "Infinit", "infx", "nanx", "n", "i",
		"ınf", "İnf", "-ınf", "+İnf", "ınfınıty", "İNFİNİTY", "nаn", "ｉｎｆ", "ｎａｎ",
		"-", "+", "a", "foo-bar", "net1", "x.y",
	} {
		_, err := strconv.ParseFloat(tok, 64)
		got := mayBeNumber(tok)
		if err == nil && !got {
			t.Errorf("mayBeNumber(%q) = false, but ParseFloat accepts it", tok)
		}
		if c := strings.TrimLeft(tok, "+-"); c != "" && c[0] >= 0x80 && got {
			t.Errorf("mayBeNumber(%q) = true for a token whose first byte after the sign is not ASCII", tok)
		}
	}
}

func TestParseNested(t *testing.T) {
	v, err := ParseOne("(a (b 1) \"s\")")
	if err != nil {
		t.Fatal(err)
	}
	want := List{Symbol("a"), List{Symbol("b"), Num(1)}, Str("s")}
	if !Equal(v, want) {
		t.Errorf("got %s", v.Repr())
	}
}

func TestParseQuoteSugar(t *testing.T) {
	v, err := ParseOne("'(1 2)")
	if err != nil {
		t.Fatal(err)
	}
	want := List{Symbol("quote"), List{Num(1), Num(2)}}
	if !Equal(v, want) {
		t.Errorf("got %s", v.Repr())
	}
}

func TestParseComments(t *testing.T) {
	vs, err := Parse("; leading comment\n42 ; trailing\n")
	if err != nil || len(vs) != 1 || !Equal(vs[0], Num(42)) {
		t.Errorf("Parse with comments: %v %v", vs, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"(", ")", `"unterminated`, "(a (b)"} {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) error = %v, want ErrParse", src, err)
		}
	}
	if _, err := ParseOne("1 2"); !errors.Is(err, ErrParse) {
		t.Errorf("ParseOne of two exprs: %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"(+ 1 2 3)", 6},
		{"(* 2 3 4)", 24},
		{"(- 10 3 2)", 5},
		{"(- 5)", -5},
		{"(/ 7 2)", 3.5},
		{"(mod 7 3)", 1},
		{"(floor 2.7)", 2},
		{"(round 2.5)", 3},
		{"(+)", 0},
		{"(*)", 1},
	}
	for _, c := range cases {
		got := run(t, c.src)
		if n, ok := got.(Num); !ok || float64(n) != c.want {
			t.Errorf("%s = %s, want %v", c.src, got.Repr(), c.want)
		}
	}
	if err := runErr(t, "(/ 1 0)"); !errors.Is(err, ErrEval) {
		t.Errorf("divide by zero: %v", err)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"(< 1 2)", true},
		{"(> 1 2)", false},
		{"(<= 2 2)", true},
		{"(>= 1 2)", false},
		{"(= 3 3)", true},
		{"(not #f)", true},
		{"(not 5)", false},
		{"(eq? 'a 'a)", true},
		{"(eq? '(1 2) '(1 2))", true},
		{"(eq? \"x\" \"y\")", false},
		{"(null? '())", true},
		{"(null? '(1))", false},
		{"(string? \"s\")", true},
		{"(number? 1)", true},
		{"(symbol? 'x)", true},
		{"(list? '(1))", true},
	}
	for _, c := range cases {
		got := run(t, c.src)
		if b, ok := got.(Bool); !ok || bool(b) != c.want {
			t.Errorf("%s = %s, want %v", c.src, got.Repr(), c.want)
		}
	}
}

func TestSpecialForms(t *testing.T) {
	if v := run(t, "(if (< 1 2) 'yes 'no)"); !Equal(v, Symbol("yes")) {
		t.Errorf("if = %s", v.Repr())
	}
	if v := run(t, "(if #f 'yes)"); !Equal(v, Bool(false)) {
		t.Errorf("if without else = %s", v.Repr())
	}
	if v := run(t, "(cond ((= 1 2) 'a) ((= 1 1) 'b) (else 'c))"); !Equal(v, Symbol("b")) {
		t.Errorf("cond = %s", v.Repr())
	}
	if v := run(t, "(cond ((= 1 2) 'a) (else 'c))"); !Equal(v, Symbol("c")) {
		t.Errorf("cond else = %s", v.Repr())
	}
	if v := run(t, "(cond ((= 1 2) 'a))"); !Equal(v, Bool(false)) {
		t.Errorf("cond no match = %s", v.Repr())
	}
	if v := run(t, "(begin 1 2 3)"); !Equal(v, Num(3)) {
		t.Errorf("begin = %s", v.Repr())
	}
	if v := run(t, "(and 1 2 3)"); !Equal(v, Num(3)) {
		t.Errorf("and = %s", v.Repr())
	}
	if v := run(t, "(and 1 #f 3)"); !Equal(v, Bool(false)) {
		t.Errorf("and short = %s", v.Repr())
	}
	if v := run(t, "(or #f 2 3)"); !Equal(v, Num(2)) {
		t.Errorf("or = %s", v.Repr())
	}
	if v := run(t, "(or #f #f)"); !Equal(v, Bool(false)) {
		t.Errorf("or all false = %s", v.Repr())
	}
}

func TestDefineAndSet(t *testing.T) {
	if v := run(t, "(define x 10) (+ x 5)"); !Equal(v, Num(15)) {
		t.Errorf("define = %s", v.Repr())
	}
	if v := run(t, "(define x 1) (set! x 2) x"); !Equal(v, Num(2)) {
		t.Errorf("set! = %s", v.Repr())
	}
	if err := runErr(t, "(set! nope 1)"); !errors.Is(err, ErrUnbound) {
		t.Errorf("set! unbound: %v", err)
	}
	if err := runErr(t, "undefined-sym"); !errors.Is(err, ErrUnbound) {
		t.Errorf("unbound lookup: %v", err)
	}
}

func TestLambdaAndDefineSugar(t *testing.T) {
	if v := run(t, "((lambda (a b) (+ a b)) 3 4)"); !Equal(v, Num(7)) {
		t.Errorf("lambda = %s", v.Repr())
	}
	if v := run(t, "(define (sq x) (* x x)) (sq 6)"); !Equal(v, Num(36)) {
		t.Errorf("define sugar = %s", v.Repr())
	}
	// Closure captures its environment.
	src := `(define (mkadd n) (lambda (x) (+ x n)))
	        (define add5 (mkadd 5))
	        (add5 10)`
	if v := run(t, src); !Equal(v, Num(15)) {
		t.Errorf("closure capture = %s", v.Repr())
	}
	// Variadic.
	if v := run(t, "((lambda (a . rest) (length rest)) 1 2 3 4)"); !Equal(v, Num(3)) {
		t.Errorf("variadic = %s", v.Repr())
	}
	if err := runErr(t, "((lambda (a b) a) 1)"); !errors.Is(err, ErrEval) {
		t.Errorf("arity error: %v", err)
	}
	if err := runErr(t, "(5 1 2)"); !errors.Is(err, ErrEval) {
		t.Errorf("apply non-callable: %v", err)
	}
}

func TestRecursionAndTailCalls(t *testing.T) {
	// Deep tail recursion must not blow the Go stack.
	src := `(define (count n acc) (if (= n 0) acc (count (- n 1) (+ acc 1))))
	        (count 100000 0)`
	if v := run(t, src); !Equal(v, Num(100000)) {
		t.Errorf("tail recursion = %s", v.Repr())
	}
	// Non-tail recursion for modest depth.
	src = `(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
	       (fib 15)`
	if v := run(t, src); !Equal(v, Num(610)) {
		t.Errorf("fib = %s", v.Repr())
	}
}

func TestLetForms(t *testing.T) {
	if v := run(t, "(let ((a 1) (b 2)) (+ a b))"); !Equal(v, Num(3)) {
		t.Errorf("let = %s", v.Repr())
	}
	// let evaluates bindings in the outer scope...
	if v := run(t, "(define a 10) (let ((a 1) (b a)) b)"); !Equal(v, Num(10)) {
		t.Errorf("let scoping = %s", v.Repr())
	}
	// ...let* in the accumulating scope.
	if v := run(t, "(define a 10) (let* ((a 1) (b a)) b)"); !Equal(v, Num(1)) {
		t.Errorf("let* scoping = %s", v.Repr())
	}
}

func TestListOps(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"(car '(1 2 3))", "1"},
		{"(cdr '(1 2 3))", "(2 3)"},
		{"(cons 0 '(1 2))", "(0 1 2)"},
		{"(cons 1 2)", "(1 2)"},
		{"(list 1 'a \"s\")", `(1 a "s")`},
		{"(length '(1 2 3))", "3"},
		{`(length "abcd")`, "4"},
		{"(append '(1) '(2 3) '())", "(1 2 3)"},
		{"(reverse '(1 2 3))", "(3 2 1)"},
		{"(nth 1 '(a b c))", "b"},
		{"(assoc 'b '((a 1) (b 2)))", "(b 2)"},
		{"(assoc 'z '((a 1)))", "#f"},
		{"(map (lambda (x) (* x x)) '(1 2 3))", "(1 4 9)"},
		{"(filter (lambda (x) (> x 1)) '(0 1 2 3))", "(2 3)"},
		{`(sort-strings '("b" "a" "c"))`, `("a" "b" "c")`},
	}
	for _, c := range cases {
		got := run(t, c.src)
		if got.Repr() != c.want {
			t.Errorf("%s = %s, want %s", c.src, got.Repr(), c.want)
		}
	}
	if err := runErr(t, "(car '())"); !errors.Is(err, ErrEval) {
		t.Errorf("car of empty: %v", err)
	}
	if err := runErr(t, "(nth 5 '(a))"); !errors.Is(err, ErrEval) {
		t.Errorf("nth out of range: %v", err)
	}
}

func TestStringOps(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`(string-append "a" "b" "c")`, `"abc"`},
		{`(string-append "r=" 42)`, `"r=42"`},
		{`(string-upcase "mixEd")`, `"MIXED"`},
		{`(string-downcase "MixEd")`, `"mixed"`},
		{`(substring "hello" 1 3)`, `"el"`},
		{`(string-split "a,b,c" ",")`, `("a" "b" "c")`},
		{`(string-join '("x" "y") "-")`, `"x-y"`},
		{`(string-contains? "wideband" "band")`, "#t"},
		{`(string-prefix? "wideband" "wide")`, "#t"},
		{`(string-replace "a_b_c" "_" ".")`, `"a.b.c"`},
		{`(string->number "2.5")`, "2.5"},
		{`(string->number "xyz")`, "#f"},
		{`(number->string 7)`, `"7"`},
		{`(symbol->string 'abc)`, `"abc"`},
		{`(string->symbol "abc")`, "abc"},
	}
	for _, c := range cases {
		got := run(t, c.src)
		if got.Repr() != c.want {
			t.Errorf("%s = %s, want %s", c.src, got.Repr(), c.want)
		}
	}
	if err := runErr(t, `(substring "ab" 1 5)`); !errors.Is(err, ErrEval) {
		t.Errorf("substring range: %v", err)
	}
}

func TestErrorBuiltin(t *testing.T) {
	err := runErr(t, `(error "bad property" 'foo)`)
	if !errors.Is(err, ErrEval) || !strings.Contains(err.Error(), "bad property") {
		t.Errorf("error builtin: %v", err)
	}
}

func TestRegisterFuncAndForeign(t *testing.T) {
	env := NewEnv()
	var seen []string
	env.RegisterFunc("get-prop", func(args []Value) (Value, error) {
		name, _ := args[0].(Str)
		seen = append(seen, string(name))
		return Str("VALUE:" + string(name)), nil
	})
	env.Define("design", Foreign{Tag: "design", Obj: 42})
	v, err := Run(`(string-append (get-prop "width") "!")`, env)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, Str("VALUE:width!")) {
		t.Errorf("foreign call = %s", v.Repr())
	}
	if len(seen) != 1 || seen[0] != "width" {
		t.Errorf("callback trace = %v", seen)
	}
	d, err := Run("design", env)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := d.(Foreign)
	if !ok || f.Obj != 42 {
		t.Errorf("foreign round trip = %v", d)
	}
	if !strings.Contains(f.Repr(), "design") {
		t.Errorf("Foreign.Repr = %s", f.Repr())
	}
}

func TestApplyFromGo(t *testing.T) {
	env := NewEnv()
	if _, err := Run("(define (double x) (* 2 x))", env); err != nil {
		t.Fatal(err)
	}
	fn, err := env.Lookup(Symbol("double"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Apply(fn, []Value{Num(21)})
	if err != nil || !Equal(v, Num(42)) {
		t.Errorf("Apply = %v, %v", v, err)
	}
	if _, err := Apply(Num(1), nil); !errors.Is(err, ErrEval) {
		t.Errorf("Apply non-callable: %v", err)
	}
}

// The kind of property-reformatting callback the paper describes: split one
// analog property "spice=W:2.5 L:0.35" into multiple target properties.
func TestPropertyReformatScenario(t *testing.T) {
	src := `
	(define (reformat-spice v)
	  (let ((parts (string-split v " ")))
	    (map (lambda (p)
	           (let ((kv (string-split p ":")))
	             (list (string-append "m_" (string-downcase (car kv)))
	                   (nth 1 kv))))
	         parts)))
	(reformat-spice "W:2.5 L:0.35")`
	v := run(t, src)
	want := `(("m_w" "2.5") ("m_l" "0.35"))`
	if v.Repr() != want {
		t.Errorf("reformat = %s, want %s", v.Repr(), want)
	}
}

func TestReprRoundTrip(t *testing.T) {
	srcs := []string{"(1 2 (3 \"s\") sym #t #f)", "42", `"q\"uoted"`}
	for _, s := range srcs {
		v, err := ParseOne(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseOne(v.Repr())
		if err != nil || !Equal(v, back) {
			t.Errorf("repr round trip %q -> %s: %v", s, v.Repr(), err)
		}
	}
}

// Property: any list of small integers round-trips through Repr/Parse.
func TestQuickNumListRoundTrip(t *testing.T) {
	f := func(xs []int16) bool {
		l := make(List, len(xs))
		for i, x := range xs {
			l[i] = Num(x)
		}
		back, err := ParseOne(l.Repr())
		return err == nil && Equal(l, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is reflexive on parsed expressions.
func TestQuickEqualReflexive(t *testing.T) {
	f := func(a int32, s string) bool {
		l := List{Num(a), Str(s), Symbol("k"), List{Bool(true)}}
		return Equal(l, l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

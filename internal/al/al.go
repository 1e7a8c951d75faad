// Package al implements a/L, the small Lisp dialect the paper's Section 2
// credits for Exar's fully automated schematic migration: "By using the a/L
// interpreted language to handle the unique formatting requirements, Exar
// achieved a high degree of automation with no manual post translation
// cleanup."
//
// a/L here is a lexically scoped Lisp-1 with the special forms quote, if,
// cond, define, set!, lambda, let, let*, begin, and, or, plus a library of
// list and string builtins chosen for property-reformatting work. Host code
// (the migrator) exposes the design hierarchy to callbacks by registering
// foreign functions with Env.RegisterFunc.
package al

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Value is any a/L datum. The concrete types are Symbol, Str, Num, Bool,
// List, *Builtin, *Closure and Foreign.
type Value interface {
	// Repr renders the value in written (read-back) form.
	Repr() string
}

// Symbol is an identifier.
type Symbol string

// Str is a string literal.
type Str string

// Num is a number; a/L has a single numeric tower of float64, like many
// small embedded Lisps.
type Num float64

// Bool is #t or #f.
type Bool bool

// List is a proper list. The empty List is nil/'().
type List []Value

// Foreign wraps an arbitrary host object passed through a/L untouched.
type Foreign struct {
	Tag string
	Obj any
}

// Builtin is a native function.
type Builtin struct {
	Name string
	Fn   func(args []Value) (Value, error)
}

// Closure is a user-defined function.
type Closure struct {
	Params   []Symbol
	Variadic bool // last param collects the rest as a List
	Body     []Value
	Env      *Env
}

// Repr implementations.
func (s Symbol) Repr() string { return string(s) }
func (s Str) Repr() string    { return strconv.Quote(string(s)) }
func (n Num) Repr() string {
	if n == Num(int64(n)) {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(float64(n), 'g', -1, 64)
}
func (b Bool) Repr() string {
	if b {
		return "#t"
	}
	return "#f"
}
func (l List) Repr() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = v.Repr()
	}
	return "(" + strings.Join(parts, " ") + ")"
}
func (f Foreign) Repr() string  { return fmt.Sprintf("#<foreign:%s>", f.Tag) }
func (b *Builtin) Repr() string { return fmt.Sprintf("#<builtin:%s>", b.Name) }
func (c *Closure) Repr() string { return fmt.Sprintf("#<lambda/%d>", len(c.Params)) }

// Truthy follows Scheme: everything except #f is true.
func Truthy(v Value) bool {
	b, ok := v.(Bool)
	return !ok || bool(b)
}

// Errors.
var (
	// ErrParse reports malformed source text.
	ErrParse = errors.New("al: parse error")
	// ErrEval reports a runtime evaluation failure.
	ErrEval = errors.New("al: eval error")
	// ErrUnbound reports a reference to an undefined symbol.
	ErrUnbound = errors.New("al: unbound symbol")
)

// ---------------------------------------------------------------------------
// Reader
//
// The reader carries byte offsets on every token and builds an optional
// position tree mirroring the value tree, so the interchange readers built
// on top of a/L (exchange, cd) can attach file positions to their
// diagnostics — "detect, don't silently accept" needs a place to point at.

// MaxDepth bounds list nesting. Without it a hostile input of open parens
// drives the recursive-descent reader arbitrarily deep; with it malformed
// nesting is an ordinary parse error.
const MaxDepth = 2000

// PosTree mirrors the shape of one parsed Value: Off is the byte offset of
// the expression's first token, and for a List, Kids holds one subtree per
// element. Atoms have nil Kids.
type PosTree struct {
	Off  int
	Kids []*PosTree
}

// Kid returns the i-th child subtree, falling back to the parent's own
// position when the index is out of range — diagnostics always get a
// position, at worst the enclosing form's.
func (p *PosTree) Kid(i int) *PosTree {
	if p == nil {
		return nil
	}
	if i >= 0 && i < len(p.Kids) {
		return p.Kids[i]
	}
	return &PosTree{Off: p.Off}
}

// Offset returns the node's byte offset, -1 for a nil tree.
func (p *PosTree) Offset() int {
	if p == nil {
		return -1
	}
	return p.Off
}

type lexer struct {
	src string
	pos int
	// base offsets every reported position: the stream scanner (stream.go)
	// lexes window slices of a larger input and needs absolute offsets in
	// position trees and error messages. Whole-input parsing leaves it 0.
	base int
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ';' { // comment to end of line
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
}

// next returns the token text and its starting byte offset (base-shifted).
// EOF is the empty token at offset len(src).
func (lx *lexer) next() (tok string, off int, err error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return "", lx.base + len(lx.src), nil // EOF signalled by empty token
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', '\'':
		lx.pos++
		return lx.src[start:lx.pos], lx.base + start, nil
	case '"':
		lx.pos++
		for lx.pos < len(lx.src) {
			if lx.src[lx.pos] == '\\' {
				lx.pos += 2
				continue
			}
			if lx.src[lx.pos] == '"' {
				lx.pos++
				return lx.src[start:lx.pos], lx.base + start, nil
			}
			lx.pos++
		}
		return "", lx.base + start, incomplete("offset %d: unterminated string", lx.base+start)
	default:
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '(' || c == ')' || c == '\'' || c == '"' || c == ';' ||
				c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			lx.pos++
		}
		return lx.src[start:lx.pos], lx.base + start, nil
	}
}

// errIncomplete marks, under errors.Is, the parse errors that more input
// could repair: an unterminated list or string, and input that ends where
// an expression should start. Scanner.ReadForm refills its window only
// for these. Matching the mark rather than the message matters: a bad
// string's message quotes the string, which may say "unterminated list".
var errIncomplete = errors.New("al: incomplete input")

// incompleteError is a parse error that more input could repair.
type incompleteError struct{ msg string }

func (e *incompleteError) Error() string   { return e.msg }
func (e *incompleteError) Unwrap() []error { return []error{ErrParse, errIncomplete} }

// incomplete returns the error fmt.Errorf("%w: "+format, ErrParse, args...)
// would, marked as repairable by more input.
func incomplete(format string, args ...any) error {
	return &incompleteError{msg: ErrParse.Error() + ": " + fmt.Sprintf(format, args...)}
}

// Parse reads all expressions in src.
func Parse(src string) ([]Value, error) {
	vs, _, err := ParseTracked(src)
	return vs, err
}

// ParseTracked reads all expressions in src, returning a position tree per
// expression alongside the values.
func ParseTracked(src string) ([]Value, []*PosTree, error) {
	p := parser{lexer: lexer{src: src}}
	var out []Value
	var trees []*PosTree
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return out, trees, nil
		}
		v, pt, err := p.form()
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
		trees = append(trees, pt)
	}
}

// ParseRecover reads all expressions in src with toplevel error recovery:
// a malformed toplevel form is reported via report (offset, message) and
// skipped — the reader resynchronizes at the next balanced toplevel
// position and keeps going. It returns every form that did parse.
func ParseRecover(src string, report func(off int, msg string)) ([]Value, []*PosTree) {
	p := parser{lexer: lexer{src: src}}
	var out []Value
	var trees []*PosTree
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return out, trees
		}
		off := p.pos
		v, pt, err := p.form()
		if err != nil {
			// A lexical error (an unterminated string) has consumed the
			// rest of the input, so resync stops at once.
			report(off, err.Error())
			p.resync()
			continue
		}
		out = append(out, v)
		trees = append(trees, pt)
	}
}

// resync consumes tokens until the paren depth returns to balance at a
// toplevel boundary (or EOF), the recovery point after a parse error.
func (lx *lexer) resync() {
	depth := 0
	for {
		tok, _, err := lx.next()
		if err != nil {
			// A broken token (unterminated string) eats the rest of the
			// input anyway; stop here.
			lx.pos = len(lx.src)
			return
		}
		switch tok {
		case "":
			return
		case "(":
			depth++
		case ")":
			if depth <= 1 {
				return
			}
			depth--
		}
	}
}

// ParseOne reads exactly one expression.
func ParseOne(src string) (Value, error) {
	vs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(vs) != 1 {
		return nil, fmt.Errorf("%w: expected one expression, got %d", ErrParse, len(vs))
	}
	return vs[0], nil
}

// parser is the state of one parse: the lexer over the input and the
// arena its nodes come from.
type parser struct {
	lexer
	ar arena
}

// arena supplies the nodes of a parse: every PosTree, and the exact-length
// element arrays behind every List and every Kids slice, carved from
// shared chunks instead of one allocation per node and an append per
// element. What the parse returns points into the chunks, so a retained
// subtree keeps its whole chunk alive; beyond that, only a Scanner holds
// its current chunks, for its next forms. Each slice handed out is capped
// at its length, so an append to one parsed list copies instead of
// writing into its neighbour.
type arena struct {
	nodes chunks[PosTree]
	vals  chunks[Value]
	kids  chunks[*PosTree]
	// stack holds the items read so far of every list still open,
	// innermost last. A list copies its items out once, at its close
	// paren, and clears their slots.
	stack []item
}

type item struct {
	v  Value
	pt *PosTree
}

// Chunk sizes, in elements. The first chunk of each kind is small so a
// short parse (an a/L callback, one streamed record) stays small, and
// sizes double so a long one allocates rarely. The cap bounds the unused
// tail of the last chunk and what one retained node keeps alive. Sizes
// run one short of a power of two: a chunk holds pointers, and above 512
// bytes Go prefixes such an object with an 8-byte header, so 512 nodes
// would take 16,392 bytes and be rounded up to the 18,432-byte size
// class, while 511 fill the 16,384-byte one.
const (
	minChunk = 7
	maxChunk = 511
)

// chunks carves capped slices out of doubling backing arrays.
type chunks[T any] struct {
	free []T
	size int
}

// take returns a zeroed slice of n elements with capacity n. A request
// larger than a chunk gets an array of its own.
func (c *chunks[T]) take(n int) []T {
	if n > len(c.free) {
		if n > maxChunk {
			return make([]T, n)
		}
		c.size = min(max(2*c.size+1, minChunk, n), maxChunk)
		c.free = make([]T, c.size)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

func (a *arena) node(off int) *PosTree {
	pt := &a.nodes.take(1)[0]
	pt.Off = off
	return pt
}

// closeList pops the items above mark into the list pt heads. An empty
// list stays nil, as do its Kids.
func (a *arena) closeList(mark int, pt *PosTree) List {
	items := a.stack[mark:]
	if len(items) == 0 {
		return nil
	}
	l := List(a.vals.take(len(items)))
	pt.Kids = a.kids.take(len(items))
	for i, it := range items {
		l[i], pt.Kids[i] = it.v, it.pt
	}
	clear(items)
	a.stack = a.stack[:mark]
	return l
}

// form reads one toplevel expression, first dropping whatever items a
// failed earlier form left on the stack.
func (p *parser) form() (Value, *PosTree, error) {
	clear(p.ar.stack)
	p.ar.stack = p.ar.stack[:0]
	return p.expr(0)
}

// expr reads one expression at nesting depth; the caller has checked
// depth against MaxDepth.
func (p *parser) expr(depth int) (Value, *PosTree, error) {
	tok, off, err := p.next()
	if err != nil {
		return nil, nil, err
	}
	switch {
	case tok == "":
		return nil, nil, incomplete("unexpected end of input")
	case tok == "(":
		return p.list(off, depth)
	case tok == ")":
		return nil, nil, fmt.Errorf("%w: offset %d: unexpected )", ErrParse, off)
	case tok == "'":
		if depth >= MaxDepth {
			return nil, nil, depthError(p.base + p.pos)
		}
		q, kid, err := p.expr(depth + 1)
		if err != nil {
			return nil, nil, err
		}
		pt := p.ar.node(off)
		pt.Kids = p.ar.kids.take(2)
		pt.Kids[0], pt.Kids[1] = p.ar.node(off), kid
		l := List(p.ar.vals.take(2))
		l[0], l[1] = Symbol("quote"), q
		return l, pt, nil
	case tok[0] == '"':
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: offset %d: bad string %s: %v", ErrParse, off, tok, err)
		}
		return Str(s), p.ar.node(off), nil
	case tok == "#t":
		return Bool(true), p.ar.node(off), nil
	case tok == "#f":
		return Bool(false), p.ar.node(off), nil
	default:
		if mayBeNumber(tok) {
			if n, err := strconv.ParseFloat(tok, 64); err == nil {
				return Num(n), p.ar.node(off), nil
			}
		}
		return Symbol(tok), p.ar.node(off), nil
	}
}

// list reads the items and close paren of a list whose open paren was at
// off. It decides the close paren and end of input from the next byte,
// so each item is lexed once.
func (p *parser) list(off, depth int) (Value, *PosTree, error) {
	pt := p.ar.node(off)
	mark := len(p.ar.stack)
	for {
		end := p.pos
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, nil, incomplete("offset %d: unterminated list", off)
		}
		if p.src[p.pos] == ')' {
			p.pos++
			return p.ar.closeList(mark, pt), pt, nil
		}
		if depth >= MaxDepth {
			// A lexical error in the item outranks the depth error. That
			// points just past the previous token, where ParseRecover's
			// resync then starts.
			if _, _, err := p.next(); err != nil {
				return nil, nil, err
			}
			p.pos = end
			return nil, nil, depthError(p.base + end)
		}
		v, kid, err := p.expr(depth + 1)
		if err != nil {
			return nil, nil, err
		}
		p.ar.stack = append(p.ar.stack, item{v, kid})
	}
}

func depthError(off int) error {
	return fmt.Errorf("%w: offset %d: nesting deeper than %d", ErrParse, off, MaxDepth)
}

// mayBeNumber reports whether strconv.ParseFloat could accept tok: after
// an optional sign, a digit or '.', or, in any case, inf, infinity or
// nan. That is a superset of its syntax, so skipping ParseFloat for the
// rest changes no result; it spares symbols the *NumError a failed
// ParseFloat allocates.
func mayBeNumber(tok string) bool {
	s := tok
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if c := s[0]; '0' <= c && c <= '9' || c == '.' {
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}

// ---------------------------------------------------------------------------
// Environment

// Env is a lexical scope frame.
type Env struct {
	vars   map[Symbol]Value
	parent *Env
}

// NewEnv returns a fresh global environment with the standard library bound.
func NewEnv() *Env {
	e := &Env{vars: make(map[Symbol]Value)}
	registerStdlib(e)
	return e
}

// Child returns a new scope nested in e.
func (e *Env) Child() *Env {
	return &Env{vars: make(map[Symbol]Value), parent: e}
}

// Lookup resolves a symbol.
func (e *Env) Lookup(s Symbol) (Value, error) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[s]; ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrUnbound, s)
}

// Define binds s in this frame.
func (e *Env) Define(s Symbol, v Value) { e.vars[s] = v }

// Set rebinds the nearest existing binding of s.
func (e *Env) Set(s Symbol, v Value) error {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[s]; ok {
			env.vars[s] = v
			return nil
		}
	}
	return fmt.Errorf("%w: set! of %s", ErrUnbound, s)
}

// RegisterFunc exposes a Go function to a/L programs. This is the hook the
// migrator uses to let callbacks "interact with the entire design hierarchy"
// as the paper puts it.
func (e *Env) RegisterFunc(name string, fn func(args []Value) (Value, error)) {
	e.Define(Symbol(name), &Builtin{Name: name, Fn: fn})
}

// ---------------------------------------------------------------------------
// Evaluator

// Eval evaluates one expression in env.
func Eval(expr Value, env *Env) (Value, error) {
	for { // tail-call loop
		switch v := expr.(type) {
		case Num, Str, Bool, Foreign, *Builtin, *Closure:
			return v, nil
		case Symbol:
			return env.Lookup(v)
		case List:
			if len(v) == 0 {
				return List(nil), nil
			}
			if head, ok := v[0].(Symbol); ok {
				switch head {
				case "quote":
					if len(v) != 2 {
						return nil, fmt.Errorf("%w: quote wants 1 arg", ErrEval)
					}
					return v[1], nil
				case "if":
					if len(v) != 3 && len(v) != 4 {
						return nil, fmt.Errorf("%w: if wants 2 or 3 args", ErrEval)
					}
					c, err := Eval(v[1], env)
					if err != nil {
						return nil, err
					}
					if Truthy(c) {
						expr = v[2]
						continue
					}
					if len(v) == 4 {
						expr = v[3]
						continue
					}
					return Bool(false), nil
				case "cond":
					matched := false
					for _, clause := range v[1:] {
						cl, ok := clause.(List)
						if !ok || len(cl) < 2 {
							return nil, fmt.Errorf("%w: malformed cond clause", ErrEval)
						}
						if sym, ok := cl[0].(Symbol); ok && sym == "else" {
							expr = List(append(List{Symbol("begin")}, cl[1:]...))
							matched = true
							break
						}
						c, err := Eval(cl[0], env)
						if err != nil {
							return nil, err
						}
						if Truthy(c) {
							expr = List(append(List{Symbol("begin")}, cl[1:]...))
							matched = true
							break
						}
					}
					if !matched {
						return Bool(false), nil
					}
					continue
				case "define":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: define wants 2+ args", ErrEval)
					}
					// (define (f a b) body...) sugar.
					if sig, ok := v[1].(List); ok {
						if len(sig) == 0 {
							return nil, fmt.Errorf("%w: empty define signature", ErrEval)
						}
						name, ok := sig[0].(Symbol)
						if !ok {
							return nil, fmt.Errorf("%w: define name must be a symbol", ErrEval)
						}
						cl, err := makeClosure(sig[1:], v[2:], env)
						if err != nil {
							return nil, err
						}
						env.Define(name, cl)
						return name, nil
					}
					name, ok := v[1].(Symbol)
					if !ok {
						return nil, fmt.Errorf("%w: define name must be a symbol", ErrEval)
					}
					val, err := Eval(v[2], env)
					if err != nil {
						return nil, err
					}
					env.Define(name, val)
					return name, nil
				case "set!":
					if len(v) != 3 {
						return nil, fmt.Errorf("%w: set! wants 2 args", ErrEval)
					}
					name, ok := v[1].(Symbol)
					if !ok {
						return nil, fmt.Errorf("%w: set! name must be a symbol", ErrEval)
					}
					val, err := Eval(v[2], env)
					if err != nil {
						return nil, err
					}
					if err := env.Set(name, val); err != nil {
						return nil, err
					}
					return val, nil
				case "lambda":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: lambda wants params and body", ErrEval)
					}
					params, ok := v[1].(List)
					if !ok {
						return nil, fmt.Errorf("%w: lambda params must be a list", ErrEval)
					}
					return makeClosure(params, v[2:], env)
				case "let", "let*":
					if len(v) < 3 {
						return nil, fmt.Errorf("%w: %s wants bindings and body", ErrEval, head)
					}
					binds, ok := v[1].(List)
					if !ok {
						return nil, fmt.Errorf("%w: %s bindings must be a list", ErrEval, head)
					}
					child := env.Child()
					evalEnv := env
					if head == "let*" {
						evalEnv = child
					}
					for _, b := range binds {
						pair, ok := b.(List)
						if !ok || len(pair) != 2 {
							return nil, fmt.Errorf("%w: malformed %s binding", ErrEval, head)
						}
						name, ok := pair[0].(Symbol)
						if !ok {
							return nil, fmt.Errorf("%w: %s binding name must be a symbol", ErrEval, head)
						}
						val, err := Eval(pair[1], evalEnv)
						if err != nil {
							return nil, err
						}
						child.Define(name, val)
					}
					env = child
					expr = List(append(List{Symbol("begin")}, v[2:]...))
					continue
				case "begin":
					if len(v) == 1 {
						return Bool(false), nil
					}
					for _, e := range v[1 : len(v)-1] {
						if _, err := Eval(e, env); err != nil {
							return nil, err
						}
					}
					expr = v[len(v)-1]
					continue
				case "and":
					res := Value(Bool(true))
					for _, e := range v[1:] {
						r, err := Eval(e, env)
						if err != nil {
							return nil, err
						}
						if !Truthy(r) {
							return Bool(false), nil
						}
						res = r
					}
					return res, nil
				case "or":
					for _, e := range v[1:] {
						r, err := Eval(e, env)
						if err != nil {
							return nil, err
						}
						if Truthy(r) {
							return r, nil
						}
					}
					return Bool(false), nil
				}
			}
			// Application.
			fn, err := Eval(v[0], env)
			if err != nil {
				return nil, err
			}
			args := make([]Value, len(v)-1)
			for i, a := range v[1:] {
				args[i], err = Eval(a, env)
				if err != nil {
					return nil, err
				}
			}
			switch f := fn.(type) {
			case *Builtin:
				return f.Fn(args)
			case *Closure:
				child := f.Env.Child()
				if err := bindParams(f, args, child); err != nil {
					return nil, err
				}
				env = child
				expr = List(append(List{Symbol("begin")}, f.Body...))
				continue
			default:
				return nil, fmt.Errorf("%w: %s is not callable", ErrEval, v[0].Repr())
			}
		case nil:
			return nil, fmt.Errorf("%w: nil expression", ErrEval)
		default:
			return nil, fmt.Errorf("%w: unknown value type %T", ErrEval, expr)
		}
	}
}

func makeClosure(params List, body []Value, env *Env) (*Closure, error) {
	cl := &Closure{Env: env, Body: body}
	for i, p := range params {
		s, ok := p.(Symbol)
		if !ok {
			return nil, fmt.Errorf("%w: lambda param must be a symbol", ErrEval)
		}
		if s == "." {
			if i != len(params)-2 {
				return nil, fmt.Errorf("%w: misplaced rest marker", ErrEval)
			}
			rest, ok := params[i+1].(Symbol)
			if !ok {
				return nil, fmt.Errorf("%w: rest param must be a symbol", ErrEval)
			}
			cl.Params = append(cl.Params, rest)
			cl.Variadic = true
			return cl, nil
		}
		cl.Params = append(cl.Params, s)
	}
	return cl, nil
}

func bindParams(f *Closure, args []Value, env *Env) error {
	if f.Variadic {
		fixed := len(f.Params) - 1
		if len(args) < fixed {
			return fmt.Errorf("%w: want at least %d args, got %d", ErrEval, fixed, len(args))
		}
		for i := 0; i < fixed; i++ {
			env.Define(f.Params[i], args[i])
		}
		env.Define(f.Params[fixed], List(append([]Value(nil), args[fixed:]...)))
		return nil
	}
	if len(args) != len(f.Params) {
		return fmt.Errorf("%w: want %d args, got %d", ErrEval, len(f.Params), len(args))
	}
	for i, p := range f.Params {
		env.Define(p, args[i])
	}
	return nil
}

// Run parses and evaluates src, returning the value of the last expression.
func Run(src string, env *Env) (Value, error) {
	exprs, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var last Value = Bool(false)
	for _, e := range exprs {
		last, err = Eval(e, env)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

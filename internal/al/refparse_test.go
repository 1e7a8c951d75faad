package al

// A retained copy of the reader as it was before the arena: one heap
// PosTree per node, List and Kids grown by append, every list item lexed
// twice (peek, then parse), strconv.ParseFloat tried on every atom. It is
// the reference the arena reader is proven against (equiv_test.go):
// ParseTracked, ParseRecover and Scanner.ReadForm must return the same
// values, position trees and error texts. It lives in a _test.go file so
// no dead code ships.

import (
	"fmt"
	"strconv"
)

type refLexer struct {
	src string
	pos int
}

func (lx *refLexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ';' {
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

func (lx *refLexer) next() (tok string, off int, err error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return "", len(lx.src), nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', '\'':
		lx.pos++
		return string(c), start, nil
	case '"':
		lx.pos++
		for lx.pos < len(lx.src) {
			if lx.src[lx.pos] == '\\' {
				lx.pos += 2
				continue
			}
			if lx.src[lx.pos] == '"' {
				lx.pos++
				return lx.src[start:lx.pos], start, nil
			}
			lx.pos++
		}
		return "", start, fmt.Errorf("%w: offset %d: unterminated string", ErrParse, start)
	default:
		for lx.pos < len(lx.src) {
			c := lx.src[lx.pos]
			if c == '(' || c == ')' || c == '\'' || c == '"' || c == ';' ||
				c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			lx.pos++
		}
		return lx.src[start:lx.pos], start, nil
	}
}

func (lx *refLexer) peek() (string, int, error) {
	save := lx.pos
	tok, off, err := lx.next()
	lx.pos = save
	return tok, off, err
}

func refParseTracked(src string) ([]Value, []*PosTree, error) {
	lx := &refLexer{src: src}
	var out []Value
	var trees []*PosTree
	for {
		tok, _, err := lx.peek()
		if err != nil {
			return nil, nil, err
		}
		if tok == "" {
			return out, trees, nil
		}
		v, pt, err := refParseExpr(lx, 0)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
		trees = append(trees, pt)
	}
}

func refParseRecover(src string, report func(off int, msg string)) ([]Value, []*PosTree) {
	lx := &refLexer{src: src}
	var out []Value
	var trees []*PosTree
	for {
		tok, off, err := lx.peek()
		if err != nil {
			report(off, err.Error())
			lx.next()
			continue
		}
		if tok == "" {
			return out, trees
		}
		v, pt, err := refParseExpr(lx, 0)
		if err != nil {
			report(off, err.Error())
			lx.resync()
			continue
		}
		out = append(out, v)
		trees = append(trees, pt)
	}
}

func (lx *refLexer) resync() {
	depth := 0
	for {
		tok, _, err := lx.next()
		if err != nil {
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

func refParseExpr(lx *refLexer, depth int) (Value, *PosTree, error) {
	if depth > MaxDepth {
		return nil, nil, fmt.Errorf("%w: offset %d: nesting deeper than %d", ErrParse, lx.pos, MaxDepth)
	}
	tok, off, err := lx.next()
	if err != nil {
		return nil, nil, err
	}
	pt := &PosTree{Off: off}
	switch {
	case tok == "":
		return nil, nil, fmt.Errorf("%w: unexpected end of input", ErrParse)
	case tok == "(":
		var items List
		for {
			p, _, err := lx.peek()
			if err != nil {
				return nil, nil, err
			}
			if p == "" {
				return nil, nil, fmt.Errorf("%w: offset %d: unterminated list", ErrParse, off)
			}
			if p == ")" {
				lx.next()
				return items, pt, nil
			}
			item, kid, err := refParseExpr(lx, depth+1)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, item)
			pt.Kids = append(pt.Kids, kid)
		}
	case tok == ")":
		return nil, nil, fmt.Errorf("%w: offset %d: unexpected )", ErrParse, off)
	case tok == "'":
		q, kid, err := refParseExpr(lx, depth+1)
		if err != nil {
			return nil, nil, err
		}
		pt.Kids = []*PosTree{{Off: off}, kid}
		return List{Symbol("quote"), q}, pt, nil
	case tok[0] == '"':
		s, err := strconv.Unquote(tok)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: offset %d: bad string %s: %v", ErrParse, off, tok, err)
		}
		return Str(s), pt, nil
	case tok == "#t":
		return Bool(true), pt, nil
	case tok == "#f":
		return Bool(false), pt, nil
	default:
		if n, err := strconv.ParseFloat(tok, 64); err == nil {
			return Num(n), pt, nil
		}
		return Symbol(tok), pt, nil
	}
}

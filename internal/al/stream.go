package al

import (
	"errors"
	"io"
)

// Scanner reads s-expressions incrementally from an io.Reader without
// materializing the whole input: the interchange readers built on top of
// it (exchange, cd) pull one record at a time and discard consumed bytes
// at record boundaries, so peak memory is bounded by one record plus one
// read chunk regardless of file size. Offsets reported in position trees,
// tokens and error messages are absolute within the input, matching what
// whole-input parsing of the same bytes would report.
//
// The scanner is deliberately lower-level than Parse: callers walk the
// structure themselves (Peek/Next for the enclosing skeleton, ReadForm
// for small leaf records) and decide where the record boundaries — and
// therefore the recovery points and memory bounds — lie.
type Scanner struct {
	r   io.Reader
	src string // current window
	pos int    // consumed prefix of the window
	// base is the absolute offset of src[0]; baseLine / baseLineStart
	// carry the line bookkeeping for everything compacted away, so
	// LineColAt can resolve any offset still inside the window.
	base          int
	baseLine      int // '\n' count before src[0]
	baseLineStart int // absolute offset of the line start containing src[0]
	eof           bool
	readErr       error
	maxWindow     int
	chunk         int
	rbuf          []byte
	ar            arena
}

// scannerChunk is the default read granularity.
const scannerChunk = 32 << 10

// NewScanner returns a scanner over r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, chunk: scannerChunk}
}

// Err returns the first non-EOF read error from the underlying reader.
func (s *Scanner) Err() error { return s.readErr }

// MaxWindow reports the high-water window size in bytes — the streaming
// memory bound a caller's compaction discipline actually achieved.
func (s *Scanner) MaxWindow() int { return s.maxWindow }

// fill appends at least one byte of input to the window, reporting false
// at end of input (or on a read error, which Err exposes).
func (s *Scanner) fill() bool {
	if s.rbuf == nil {
		s.rbuf = make([]byte, s.chunk)
	}
	for !s.eof {
		n, err := s.r.Read(s.rbuf)
		if n > 0 {
			s.src += string(s.rbuf[:n])
			if len(s.src) > s.maxWindow {
				s.maxWindow = len(s.src)
			}
		}
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.readErr = err
			s.eof = true
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// tokenComplete reports whether a lex result is final given the window:
// at the window edge a bare atom may continue into the next chunk, and an
// empty token may mean "mid-comment", not end of input.
func (s *Scanner) tokenComplete(tok string, err error, end int) bool {
	if s.eof {
		return true
	}
	if err != nil {
		return false // an unterminated string may terminate in the next chunk
	}
	if end < len(s.src) {
		return true // something follows, so the token cannot extend
	}
	switch tok {
	case "(", ")", "'":
		return true
	}
	if tok != "" && tok[0] == '"' {
		return true // a closed string is complete wherever it ends
	}
	return false
}

// Peek returns the next token and its absolute offset without consuming
// it. The empty token signals end of input.
func (s *Scanner) Peek() (tok string, off int, err error) {
	for {
		lx := &lexer{src: s.src, pos: s.pos, base: s.base}
		tok, off, err = lx.next()
		if s.tokenComplete(tok, err, lx.pos) {
			return tok, off, err
		}
		if !s.fill() {
			return tok, off, err
		}
	}
}

// Next consumes and returns the next token. On a lexical error the
// position is left unchanged.
func (s *Scanner) Next() (tok string, off int, err error) {
	for {
		lx := &lexer{src: s.src, pos: s.pos, base: s.base}
		tok, off, err = lx.next()
		if s.tokenComplete(tok, err, lx.pos) {
			if err == nil {
				s.pos = lx.pos
			}
			return tok, off, err
		}
		if !s.fill() {
			if err == nil {
				s.pos = lx.pos
			}
			return tok, off, err
		}
	}
}

// PeekInside returns the token after the next one — the head symbol of an
// upcoming list — without consuming anything.
func (s *Scanner) PeekInside() (tok string, err error) {
	save := s.pos
	if _, _, err = s.Next(); err != nil {
		s.pos = save
		return "", err
	}
	tok, _, err = s.Peek()
	s.pos = save
	return tok, err
}

// ReadForm parses one complete expression from the stream; position-tree
// offsets are absolute. On a malformed expression the scanner's position
// is unchanged — use Resync to skip past the damage. Successive forms
// share the scanner's arena, so a short record costs a few slots of a
// chunk rather than allocations of its own.
func (s *Scanner) ReadForm() (Value, *PosTree, error) {
	for {
		p := parser{lexer: lexer{src: s.src, pos: s.pos, base: s.base}, ar: s.ar}
		v, pt, err := p.form()
		s.ar = p.ar
		if err == nil {
			if !s.eof && p.pos >= len(s.src) && s.fill() {
				continue // a bare atom at the window edge may continue
			}
			s.pos = p.pos
			return v, pt, nil
		}
		// Only an error more input could repair is worth a refill.
		if !s.eof && errors.Is(err, errIncomplete) && s.fill() {
			continue
		}
		return nil, nil, err
	}
}

// Resync skips past one malformed form: tokens are consumed until the
// paren depth opened since the call returns to balance. A close paren
// belonging to an enclosing form is left in place, so recovery at record
// granularity never eats the parent's terminator. A lexical error (which
// Peek only surfaces at true end of input) consumes the remainder.
func (s *Scanner) Resync() {
	depth := 0
	for {
		tok, _, err := s.Peek()
		if err != nil {
			s.pos = len(s.src)
			return
		}
		switch tok {
		case "":
			return
		case "(":
			depth++
		case ")":
			if depth == 0 {
				return
			}
			depth--
			if depth == 0 {
				s.Next()
				return
			}
		}
		s.Next()
		if depth == 0 {
			return // a lone atom is one form
		}
	}
}

// SkipForm consumes one form (or lone atom, or stray close paren) without
// materializing it.
func (s *Scanner) SkipForm() error {
	tok, _, err := s.Peek()
	if err != nil {
		s.pos = len(s.src)
		return err
	}
	switch tok {
	case "":
		return nil
	case ")":
		s.Next()
		return nil
	}
	s.Resync()
	return nil
}

// SkipToClose consumes tokens until the close paren of the currently open
// list (one unmatched ')') has been consumed — the bail-out for a caller
// abandoning a partially-walked form.
func (s *Scanner) SkipToClose() {
	depth := 0
	for {
		tok, _, err := s.Next()
		if err != nil {
			s.pos = len(s.src)
			return
		}
		switch tok {
		case "":
			return
		case "(":
			depth++
		case ")":
			if depth == 0 {
				return
			}
			depth--
		}
	}
}

// Compact discards the consumed window prefix. Callers mark record
// boundaries with it, keeping the window — and therefore peak memory —
// bounded by one record plus one read chunk. Offsets before the
// compaction point can no longer be resolved by LineColAt.
func (s *Scanner) Compact() {
	if s.pos == 0 {
		return
	}
	for i := 0; i < s.pos; i++ {
		if s.src[i] == '\n' {
			s.baseLine++
			s.baseLineStart = s.base + i + 1
		}
	}
	s.base += s.pos
	s.src = s.src[s.pos:]
	s.pos = 0
}

// LineColAt resolves an absolute offset inside the current window to a
// 1-based line and column, with the same counting rules as diag.LineCol.
// ok is false for offsets already compacted away or beyond the window.
func (s *Scanner) LineColAt(off int) (line, col int, ok bool) {
	if off < s.base || off > s.base+len(s.src) {
		return 0, 0, false
	}
	rel := off - s.base
	line = s.baseLine + 1
	lineStart := s.baseLineStart
	for i := 0; i < rel; i++ {
		if s.src[i] == '\n' {
			line++
			lineStart = s.base + i + 1
		}
	}
	return line, off - lineStart + 1, true
}

package al

import (
	"fmt"
	"io"

	"cadinterop/internal/diag"
)

// Walker is the one record walker under the s-expression interchange
// readers (exchange's .edf, cd's .cd). A file holds one toplevel
// (<head> name child...) form. The walker reads it from a Scanner window
// record by record: a child list whose head streams is walked in turn,
// every other child is parsed whole as one record and handed to the
// grammar's handler, and the window is compacted at each record boundary,
// so peak memory is one record plus one read chunk regardless of file
// size. A grammar supplies only which heads stream, the record handlers
// and its own end-of-input work.
//
// A walked record lives until its handler returns. At each record
// boundary the walker hands the scanner's arena back for the next
// record, so a handler keeps what it reads as strings and numbers, never
// as a List, a PosTree or a Kids slice, and the arena, like the window,
// holds one record whatever the file's size.
//
// The contract on broken input, the same for every format walked here:
//   - A strict read stops at the first fault in document order. A parse
//     error is reported without a position; its message carries the
//     offset.
//   - A lenient read quarantines each damaged record, lexically broken
//     ones included: the parse error is reported at the record's start,
//     the scanner resyncs past the record, and every other record is
//     salvaged. An unterminated list is reported at the toplevel form.
//   - A stray ")" costs one record only between records, where the walker
//     sees it. Inside a record it ends the record early: the record
//     parses short, and its own closing parens then close the lists
//     around it, so the later records of those lists land a level up,
//     where they are unknown forms, or past the toplevel form, where they
//     count as extra forms. This is an open defect, not a contract.
//   - A stray toplevel ")" is reported and skipped. A file must hold
//     exactly one toplevel form; a bare (<head>), or a first form with
//     another head, is reported as missing at that form.
//   - A named list that is empty, whose name fails to parse or is
//     rejected, or that the grammar refuses to add is reported, and the
//     rest of the list is skipped.
//   - MaxDepth bounds nesting within each record rather than from the top
//     of the file.
type Walker struct {
	in  counter
	sc  Scanner
	col *diag.Collector

	head       string   // the toplevel form's head
	top        diag.Pos // the toplevel form's position
	forms      int      // toplevel forms read
	missing    bool     // the first form is not a usable (<head> ...) form
	missingPos diag.Pos
}

// StreamStats reports the memory discipline a walk achieved.
type StreamStats struct {
	// MaxWindow is the peak parse-window size in bytes — the streaming
	// reader's working-set bound, typically one record plus one read chunk.
	MaxWindow int
	// InputBytes is the total input length, including what Drain read.
	InputBytes int64
}

// Stream names a child list that is walked rather than read whole. Walk
// gets the offset of the list's open paren and takes the list from just
// past its head through its close paren.
type Stream struct {
	Head string
	Walk func(open int) error
}

// NewWalker returns a walker over r that reports into col.
func NewWalker(r io.Reader, col *diag.Collector) *Walker {
	w := &Walker{col: col}
	w.in.r = r
	w.sc = *NewScanner(&w.in)
	return w
}

// Stats reports the peak window and the bytes read.
func (w *Walker) Stats() StreamStats {
	return StreamStats{MaxWindow: w.sc.MaxWindow(), InputBytes: w.in.n}
}

// Err returns the first non-EOF read error from the input.
func (w *Walker) Err() error { return w.sc.Err() }

// Drain reads the rest of the input unparsed, for a grammar that needs
// the whole input after an abort (exchange's integrity trailer). Its read
// error is dropped: the read has already failed with the abort.
func (w *Walker) Drain() { _, _ = io.Copy(io.Discard, &w.in) }

// Walk reads the input to its end. The first toplevel form, if its head
// is head and it holds more than its head, is handed to body just past
// its head. Every other toplevel form is read, counted and dropped. A
// non-nil return is an abort: a strict read's first fault, or the
// diagnostic limit.
func (w *Walker) Walk(head string, body func(open int) error) error {
	w.head = head
	sc := &w.sc
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			// The scanner surfaces lexical errors only at true end of
			// input, so the resync consumes the remainder.
			if aerr := w.quarantine(off, err); aerr != nil {
				return aerr
			}
			continue
		}
		if tok == "" {
			return nil
		}
		if tok == ")" {
			// A stray close paren is not counted; the form after it is
			// read as usual.
			if aerr := w.report(w.posAt(off), fmt.Errorf("%w: offset %d: unexpected )", ErrParse, off)); aerr != nil {
				return aerr
			}
			sc.SkipForm()
			w.compact()
			continue
		}
		if w.forms == 0 && tok == "(" {
			if h, herr := sc.PeekInside(); herr == nil && h == w.head {
				w.forms++
				if aerr := w.walkTop(off, body); aerr != nil {
					return aerr
				}
				w.compact()
				continue
			}
		}
		if _, _, err := sc.ReadForm(); err != nil {
			if aerr := w.quarantine(off, err); aerr != nil {
				return aerr
			}
			w.compact()
			continue
		}
		w.forms++
		if w.forms == 1 {
			w.missing, w.missingPos = true, w.posAt(off)
		}
		w.compact()
	}
}

// walkTop walks the toplevel form opened at open; a bare (<head>) is
// missing.
func (w *Walker) walkTop(open int, body func(open int) error) error {
	w.top = w.posAt(open)
	w.sc.Next() // (
	w.sc.Next() // head
	tok, ok, err := w.opening(open)
	if !ok {
		return err
	}
	if tok == ")" {
		w.sc.Next()
		w.missing, w.missingPos = true, w.top
		return nil
	}
	return body(open)
}

// opening peeks at what follows the head of the list opened at open. ok
// is false when the list ends there: at a parse error, reported at the
// list, or at end of input.
func (w *Walker) opening(open int) (tok string, ok bool, err error) {
	tok, _, err = w.sc.Peek()
	if err != nil {
		return "", false, w.quarantine(open, err)
	}
	if tok == "" {
		return "", false, w.unterminated(open)
	}
	return tok, true, nil
}

// OneForm reports, after Walk, whether the input held exactly one usable
// (<head> ...) form, diagnosing it when not.
func (w *Walker) OneForm() (bool, error) {
	if w.forms != 1 {
		return false, w.col.Errorf("parse", diag.NoPos, "expected one (%s ...) form, got %d", w.head, w.forms)
	}
	if w.missing {
		return false, w.col.Errorf("parse", w.missingPos, "missing (%s ...) form", w.head)
	}
	return true, nil
}

// Named reads the name that opens a (<what> name child...) list and hands
// it to add. An empty list, a name form that fails to parse, a name that
// name rejects and an error from add are each reported, and the rest of
// the list is skipped. ok reports whether the children follow.
func (w *Walker) Named(open int, what string, name func(Value) (string, error), add func(string) error) (ok bool, err error) {
	tok, ok, err := w.opening(open)
	if !ok {
		return false, err
	}
	if tok == ")" {
		w.sc.Next()
		return false, w.col.Errorf("record", w.posAt(open), "%s needs a name", what)
	}
	v, pt, err := w.sc.ReadForm()
	if err != nil {
		return false, w.abandon(w.quarantine(open, err))
	}
	s, err := name(v)
	if err != nil {
		return false, w.abandon(w.col.Errorf("record", w.Pos(pt), "%s name: %v", what, err))
	}
	if err := add(s); err != nil {
		return false, w.abandon(w.col.Errorf("record", w.posAt(open), "%v", err))
	}
	return true, nil
}

// abandon skips the rest of a list after a reported fault, unless the
// report aborted the read.
func (w *Walker) abandon(aerr error) error {
	if aerr == nil {
		w.sc.SkipToClose()
	}
	return aerr
}

// Skip skips the form that opens a list's body without inspecting it (an
// .edf name, a cd page index); a list that closes at once has none. ok
// is false when the list ended instead: at a parse error, reported at the
// list, or at end of input.
func (w *Walker) Skip(open int) (ok bool, err error) {
	tok, ok, err := w.opening(open)
	if !ok || tok == ")" {
		return ok, err
	}
	if err := w.sc.SkipForm(); err != nil {
		return false, w.quarantine(open, err)
	}
	return true, nil
}

// More reports whether an open list goes on: with a child or its close
// paren, whose offset is next, or not: at a parse error, reported where
// it is, or at end of input.
func (w *Walker) More(open int) (next int, ok bool, err error) {
	tok, off, err := w.sc.Peek()
	if err != nil {
		return off, false, w.quarantine(off, err)
	}
	if tok == "" {
		return off, false, w.unterminated(open)
	}
	return off, true, nil
}

// Children walks the children of an open list through its close paren.
// A child list whose head one of streams names is walked by that
// stream's Walk; every other child is parsed as one record and handed to
// record, whose Value and PosTree live until record returns. The window
// is compacted and the arena released after every child.
func (w *Walker) Children(open int, streams []Stream, record func(Value, *PosTree) error) error {
	sc := &w.sc
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return w.quarantine(off, err)
		}
		switch tok {
		case "":
			return w.unterminated(open)
		case ")":
			sc.Next()
			return nil
		}
		// Looking inside costs a second lex, so only lists that may hold
		// a streamed child pay for it.
		if walk := w.stream(tok, streams); walk != nil {
			sc.Next() // (
			sc.Next() // head
			if aerr := walk(off); aerr != nil {
				return aerr
			}
			w.compact()
			continue
		}
		v, pt, err := sc.ReadForm()
		if err != nil {
			if aerr := w.quarantine(off, err); aerr != nil {
				return aerr
			}
			w.compact()
			continue
		}
		if aerr := record(v, pt); aerr != nil {
			return aerr
		}
		w.compact()
	}
}

// compact marks a record boundary: it discards the consumed window and
// releases the arena, since no record parsed before it is still in use.
func (w *Walker) compact() {
	w.sc.Compact()
	w.sc.ar.release()
}

// stream returns the Walk of the stream whose head opens the next child,
// nil when the child is a record.
func (w *Walker) stream(tok string, streams []Stream) func(open int) error {
	if len(streams) == 0 || tok != "(" {
		return nil
	}
	head, err := w.sc.PeekInside()
	if err != nil {
		return nil
	}
	for _, s := range streams {
		if s.Head == head {
			return s.Walk
		}
	}
	return nil
}

// quarantine reports a parse error at off and, in a lenient read, resyncs
// the scanner past the damaged record.
func (w *Walker) quarantine(off int, err error) error {
	if aerr := w.report(w.posAt(off), err); aerr != nil {
		return aerr
	}
	w.sc.Resync()
	return nil
}

// unterminated reports end of input inside the list opened at open, with
// the message a whole-input parse gives for an unclosed list, at the
// toplevel form.
func (w *Walker) unterminated(open int) error {
	return w.report(w.top, fmt.Errorf("%w: offset %d: unterminated list", ErrParse, open))
}

// report records a parse error: a strict read reports it without a
// position and aborts, a lenient one reports it at pos.
func (w *Walker) report(pos diag.Pos, err error) error {
	if w.col.Mode == diag.Strict {
		pos = diag.NoPos
	}
	return w.col.Errorf("parse", pos, "%v", err)
}

// Pos resolves a parse-tree node to a line/column position.
func (w *Walker) Pos(pt *PosTree) diag.Pos { return w.posAt(pt.Offset()) }

// posAt resolves a byte offset to a line/column position. An offset
// already compacted out of the window degrades to offset-only rather
// than costing the memory bound.
func (w *Walker) posAt(off int) diag.Pos {
	if off < 0 {
		return diag.NoPos
	}
	if line, col, ok := w.sc.LineColAt(off); ok {
		return diag.Pos{Offset: off, Line: line, Col: col}
	}
	return diag.Pos{Offset: off}
}

// counter counts the bytes read through it.
type counter struct {
	r io.Reader
	n int64
}

func (c *counter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

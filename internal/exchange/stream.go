// The interchange reader.
//
// ReadStream is the package's one reader; Read and ReadBytes wrap it. It
// never materializes the input: records — (net ...), (instance ...),
// (interface ...) and the small toplevel forms — are parsed one at a time
// from an al.Scanner window and the consumed bytes discarded at each
// record boundary, so peak memory is bounded by one record plus one read
// chunk regardless of design size. The integrity trailer is verified in
// the same pass by a hashing tee that holds back a small tail, and
// (hints ...) counts pre-size the netlist tables before the records
// arrive.
//
// The contract on broken input: a strict read stops at the first fault in
// document order, though a failed integrity trailer outranks that fault as
// the returned error; a lenient read quarantines each damaged record —
// lexically broken ones included — and salvages every other record. The
// trailer-status diagnostic always comes first, a lenient read lists bad
// renames ahead of the other record diagnostics, a collision between
// restored names carries no position, and al.MaxDepth bounds nesting
// within each record rather than from the top of the file.
package exchange

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sort"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/frame"
	"cadinterop/internal/netlist"
)

// StreamStats reports the memory discipline a streaming parse achieved.
type StreamStats struct {
	// MaxWindow is the peak parse-window size in bytes — the streaming
	// reader's working-set bound, typically one record plus one read chunk.
	MaxWindow int
	// InputBytes is the total input length.
	InputBytes int64
}

// ReadStream parses an interchange file under the given policy, in
// bounded memory (see the comment at the top of this file). The
// diagnostics slice is returned in both outcomes; in lenient mode a
// non-nil netlist with error diagnostics means "partial design — these
// records were quarantined".
func ReadStream(r io.Reader, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	nl, diags, _, err := ReadStreamStats(r, opts)
	return nl, diags, err
}

// ReadStreamStats is ReadStream, additionally reporting streaming stats.
func ReadStreamStats(r io.Reader, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, StreamStats, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	tee := newTrailerTee(r)
	sc := al.NewScanner(tee)
	rd := &exReader{col: col, sc: sc}
	st := &stream{rd: rd, sc: sc, tee: tee, renames: make(map[string]string), bodyStart: -1}
	nl, err := st.run(opts.RequireTrailer)
	stats := StreamStats{MaxWindow: sc.MaxWindow(), InputBytes: tee.total}
	if rerr := sc.Err(); rerr != nil {
		// An input error outranks whatever partial parse came out of the
		// truncated data.
		return nil, col.Diags, stats, rerr
	}
	if err != nil {
		return nil, col.Diags, stats, err
	}
	if nl == nil {
		return nil, col.Diags, stats, fmt.Errorf("%w: no usable (edif ...) form", ErrFormat)
	}
	if opts.Mode == diag.Strict {
		if cerr := col.Err(); cerr != nil {
			return nil, col.Diags, stats, cerr
		}
	}
	return nl, col.Diags, stats, nil
}

// stream is the state of one streaming parse.
type stream struct {
	rd  *exReader
	sc  *al.Scanner
	tee *trailerTee

	renames    map[string]string
	badRenames []diag.Diagnostic // lenient-mode bad renames, spliced at bodyStart
	bodyStart  int               // diag count when record processing began (-1 = never)
	edifPos    diag.Pos          // position of the (edif ...) open, captured eagerly

	missing    bool // first form parsed but is not a usable (edif ...) form
	missingPos diag.Pos

	netsHint, instsHint int // remaining (hints ...) counts for contents pre-sizing
}

func (st *stream) run(require bool) (*netlist.Netlist, error) {
	rd, sc := st.rd, st.sc
	nforms := 0
	var nl *netlist.Netlist
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			// Lexical error; the scanner only surfaces these at true end
			// of input, so resynchronizing consumes the remainder.
			if rd.col.Mode == diag.Strict {
				return nil, st.abort(rd.col.Errorf("parse", diag.NoPos, "%v", err), require)
			}
			if aerr := rd.col.Errorf("parse", rd.posAt(off), "%s", err.Error()); aerr != nil {
				return nil, st.abort(aerr, require)
			}
			sc.Resync()
			continue
		}
		if tok == "" {
			break
		}
		if tok == ")" {
			// Stray toplevel close paren: diagnosed, consumed and not
			// counted; the form after it is read as usual.
			perr := fmt.Errorf("%w: offset %d: unexpected )", al.ErrParse, off)
			if rd.col.Mode == diag.Strict {
				return nil, st.abort(rd.col.Errorf("parse", diag.NoPos, "%v", perr), require)
			}
			if aerr := rd.col.Errorf("parse", rd.posAt(off), "%s", perr.Error()); aerr != nil {
				return nil, st.abort(aerr, require)
			}
			sc.SkipForm()
			sc.Compact()
			continue
		}
		if nforms == 0 && tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil && head == "edif" {
				nforms++
				var aerr error
				nl, aerr = st.walkEdif(off)
				if aerr != nil {
					return nil, st.abort(aerr, require)
				}
				sc.Compact()
				continue
			}
		}
		// Some other toplevel form: it only matters for the form count
		// (and, if it is the first, for the missing-edif position).
		pos := rd.posAt(off)
		if _, _, err := sc.ReadForm(); err != nil {
			if rd.col.Mode == diag.Strict {
				return nil, st.abort(rd.col.Errorf("parse", diag.NoPos, "%v", err), require)
			}
			if aerr := rd.col.Errorf("parse", pos, "%s", err.Error()); aerr != nil {
				return nil, st.abort(aerr, require)
			}
			sc.Resync()
			sc.Compact()
			continue
		}
		nforms++
		if nforms == 1 {
			st.missing = true
			st.missingPos = pos
		}
		sc.Compact()
	}

	// End of input: splice in the deferred bad renames, resolve the
	// trailer, then run the end-of-parse checks (renames, manifest,
	// reconcile).
	if rd.col.Mode == diag.Lenient && len(st.badRenames) > 0 {
		st.splice()
	}
	ct, terr := st.resolveTrailer(require)
	if terr != nil {
		return nil, terr
	}
	if nforms != 1 {
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (edif ...) form, got %d", nforms)
	}
	if st.missing {
		return nil, rd.col.Errorf("parse", st.missingPos, "missing (edif ...) form")
	}
	if len(st.renames) > 0 && nl != nil {
		restore := func(alias string) string {
			if orig, ok := st.renames[alias]; ok {
				return orig
			}
			return alias
		}
		var rerr error
		nl, rerr = restoreNetlist(nl, restore, func(format string, args ...any) error {
			return rd.col.Errorf("record", diag.NoPos, format, args...)
		})
		if rerr != nil {
			return nil, rerr
		}
	}
	if ct != nil && nl != nil {
		got := countElems(nl)
		if got != *ct {
			if err := rd.integrityErr(diag.NoPos,
				"element manifest mismatch: trailer says cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d, parsed cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
				ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs,
				got.cells, got.ports, got.nets, got.insts, got.conns, got.attrs); err != nil {
				return nil, err
			}
		}
	}
	if nl != nil {
		if err := rd.reconcile(nl); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

// walkEdif streams through one (edif name item...) form. It returns the
// netlist built so far; a non-nil error is an abort.
func (st *stream) walkEdif(openOff int) (*netlist.Netlist, error) {
	rd, sc := st.rd, st.sc
	st.edifPos = rd.posAt(openOff)
	sc.Next() // (
	sc.Next() // edif
	tok, _, err := sc.Peek()
	if err != nil {
		return nil, st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return nil, st.unterminated(openOff)
	case ")":
		// (edif) — too short to be usable.
		sc.Next()
		st.missing = true
		st.missingPos = st.edifPos
		return nil, nil
	}
	if err := sc.SkipForm(); err != nil { // the edif name, never inspected
		return nil, st.recordParseErr(openOff, err)
	}
	st.bodyStart = len(rd.col.Diags)
	nl := netlist.New()
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return nl, st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return nl, st.unterminated(openOff)
		case ")":
			sc.Next()
			return nl, nil
		}
		if tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil && head == "cell" {
				if aerr := st.walkCell(nl, off); aerr != nil {
					return nil, aerr
				}
				sc.Compact()
				continue
			}
		}
		v, pt, err := sc.ReadForm()
		if err != nil {
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return nil, aerr
			}
			sc.Compact()
			continue
		}
		if aerr := st.topItem(nl, v, pt); aerr != nil {
			return nil, aerr
		}
		sc.Compact()
	}
}

// topItem dispatches one materialized toplevel item. Cells never arrive
// here: the walker catches every (cell by token and streams it.
func (st *stream) topItem(nl *netlist.Netlist, v al.Value, pt *al.PosTree) error {
	rd := st.rd
	l, ok := v.(al.List)
	if !ok || len(l) == 0 {
		return rd.col.Errorf("record", rd.pos(pt), "unexpected item %s", v.Repr())
	}
	head, _ := l[0].(al.Symbol)
	switch head {
	case "rename":
		// Only three-element renames are examined; anything else is
		// silently ignored.
		if len(l) != 3 {
			return nil
		}
		alias, err1 := symStr(l[1])
		orig, err2 := symStr(l[2])
		if err1 != nil || err2 != nil {
			if rd.col.Mode == diag.Strict {
				return rd.col.Errorf("record", rd.pos(pt), "bad rename")
			}
			// Deferred: bad renames are reported before any record
			// diagnostic, so these are spliced in at end of input.
			st.badRenames = append(st.badRenames, diag.Diagnostic{
				Sev: diag.Error, Code: "record", Source: rd.col.Source,
				Pos: rd.pos(pt), Msg: "bad rename",
			})
			return nil
		}
		st.renames[alias] = orig
	case "design":
		if len(l) < 2 {
			return rd.col.Errorf("record", rd.pos(pt), "design needs a name")
		}
		name, err := symStr(l[1])
		if err != nil {
			return rd.col.Errorf("record", rd.pos(pt.Kid(1)), "design name: %v", err)
		}
		nl.Top = name
	case "hints":
		ct := hintCounts(l)
		nl.Grow(ct.cells)
		st.netsHint, st.instsHint = ct.nets, ct.insts
	default:
		return rd.col.Errorf("record", rd.pos(pt), "unknown form %q", head)
	}
	return nil
}

// walkCell streams through one (cell name item...) form.
func (st *stream) walkCell(nl *netlist.Netlist, openOff int) error {
	rd, sc := st.rd, st.sc
	openPos := rd.posAt(openOff)
	sc.Next() // (
	sc.Next() // cell
	tok, _, err := sc.Peek()
	if err != nil {
		return st.recordParseErr(openOff, err)
	}
	switch tok {
	case "":
		return st.unterminated(openOff)
	case ")":
		sc.Next()
		return rd.col.Errorf("record", openPos, "cell needs a name")
	}
	nameV, namePT, err := sc.ReadForm()
	if err != nil {
		if aerr := st.recordParseErr(openOff, err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	name, err := symStr(nameV)
	if err != nil {
		if aerr := rd.col.Errorf("record", rd.pos(namePT), "cell name: %v", err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	c, err := nl.AddCell(name)
	if err != nil {
		if aerr := rd.col.Errorf("record", openPos, "%v", err); aerr != nil {
			return aerr
		}
		sc.SkipToClose()
		return nil
	}
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return st.unterminated(openOff)
		case ")":
			sc.Next()
			return nil
		}
		if tok == "(" {
			if head, herr := sc.PeekInside(); herr == nil && head == "contents" {
				if aerr := st.walkContents(c, off); aerr != nil {
					return aerr
				}
				sc.Compact()
				continue
			}
		}
		v, pt, err := sc.ReadForm()
		if err != nil {
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readCellItem(c, v, pt); aerr != nil {
			return aerr
		}
		sc.Compact()
	}
}

// walkContents streams through one (contents record...) form — the
// unbounded part of a large design, and therefore the place where the
// record-at-a-time discipline matters: each (net ...) / (instance ...)
// is parsed, handled, and its bytes discarded before the next one.
func (st *stream) walkContents(c *netlist.Cell, openOff int) error {
	rd, sc := st.rd, st.sc
	sc.Next() // (
	sc.Next() // contents
	if st.netsHint > 0 || st.instsHint > 0 {
		// Size this cell's tables to whatever hinted capacity remains; the
		// leftovers carry to later cells. Exact for the dominant
		// one-big-cell shape, advisory otherwise.
		preNets, preInsts := len(c.Nets), len(c.Instances)
		c.GrowContents(st.netsHint, st.instsHint)
		defer func() {
			st.netsHint = max(0, st.netsHint-(len(c.Nets)-preNets))
			st.instsHint = max(0, st.instsHint-(len(c.Instances)-preInsts))
		}()
	}
	for {
		tok, off, err := sc.Peek()
		if err != nil {
			return st.recordParseErr(off, err)
		}
		switch tok {
		case "":
			return st.unterminated(openOff)
		case ")":
			sc.Next()
			return nil
		}
		v, pt, err := sc.ReadForm()
		if err != nil {
			// Record-boundary recovery: the damaged record is skipped and
			// everything after it is salvaged.
			if aerr := st.recordParseErr(off, err); aerr != nil {
				return aerr
			}
			sc.Compact()
			continue
		}
		if aerr := rd.readContentsItem(c, v, pt); aerr != nil {
			return aerr
		}
		sc.Compact()
	}
}

// recordParseErr handles a parse error. Strict reports at NoPos and
// aborts. Lenient reports at the record's start and resynchronizes the
// scanner past the damaged record.
func (st *stream) recordParseErr(off int, err error) error {
	if st.rd.col.Mode == diag.Strict {
		return st.rd.col.Errorf("parse", diag.NoPos, "%v", err)
	}
	if aerr := st.rd.col.Errorf("parse", st.rd.posAt(off), "%s", err.Error()); aerr != nil {
		return aerr // diagnostic limit exceeded
	}
	st.sc.Resync()
	return nil
}

// unterminated reports end of input inside an open form, with the message
// al's whole-input parse gives for an unclosed list. The lenient position
// is the toplevel form start.
func (st *stream) unterminated(openOff int) error {
	err := fmt.Errorf("%w: offset %d: unterminated list", al.ErrParse, openOff)
	if st.rd.col.Mode == diag.Strict {
		return st.rd.col.Errorf("parse", diag.NoPos, "%v", err)
	}
	return st.rd.col.Errorf("parse", st.edifPos, "%s", err.Error())
}

// abort finishes an abort mid-stream: the remaining input is drained so
// the integrity trailer can still be identified, and the trailer-status
// diagnostic is placed first, where every report puts it. A trailer
// integrity error outranks the body error.
func (st *stream) abort(aerr error, require bool) error {
	io.Copy(io.Discard, st.tee)
	if _, terr := st.resolveTrailer(require); terr != nil {
		return terr
	}
	return aerr
}

// resolveTrailer identifies and verifies the integrity trailer at end of
// input and rotates its status diagnostic, if any, to the front of the
// report.
func (st *stream) resolveTrailer(require bool) (*elemCounts, error) {
	rd := st.rd
	line, pos, sum, ok := st.tee.resolve()
	defer st.rotate(len(rd.col.Diags))
	fields, found, match := frame.Parse(line, "integrity", sum)
	switch {
	case (!ok || !found) && require:
		return nil, rd.integrityErr(diag.NoPos, "required integrity trailer is absent")
	case !ok || !found:
		rd.col.Infof("integrity", diag.NoPos, "integrity trailer absent; content not verified")
		return nil, nil
	case !match:
		return nil, rd.integrityErr(pos, "content checksum mismatch: body does not match sha256 in trailer")
	}
	ct, msg := manifestCounts(fields)
	if msg != "" {
		return nil, rd.integrityErr(pos, "%s", msg)
	}
	return ct, nil
}

// rotate moves a just-appended diagnostic (if one landed after pre) to
// the front of the report.
func (st *stream) rotate(pre int) {
	d := st.rd.col.Diags
	if len(d) <= pre || len(d) < 2 {
		return
	}
	last := d[len(d)-1]
	copy(d[1:], d[:len(d)-1])
	d[0] = last
}

// splice inserts the deferred bad-rename diagnostics before the first
// record diagnostic.
func (st *stream) splice() {
	d := st.rd.col.Diags
	idx := st.bodyStart
	if idx < 0 || idx > len(d) {
		idx = len(d)
	}
	out := make([]diag.Diagnostic, 0, len(d)+len(st.badRenames))
	out = append(out, d[:idx]...)
	out = append(out, st.badRenames...)
	out = append(out, d[idx:]...)
	st.rd.col.Diags = out
}

// restoreNetlist rebuilds nl with every identifier passed through
// restore, preserving port order and merging nets that collapse to the
// same restored name (Global is sticky; colliding attributes resolve in
// sorted source order) — the same outcome as restoring names during
// construction. Property keys and values are never restored.
// Restored-name collisions go through report; a nil report return drops
// the colliding element and continues, the lenient quarantine discipline.
func restoreNetlist(nl *netlist.Netlist, restore func(string) string, report func(format string, args ...any) error) (*netlist.Netlist, error) {
	out := netlist.New()
	out.Grow(len(nl.Cells))
	for _, cn := range nl.CellNames() {
		c := nl.Cells[cn]
		nc, err := out.AddCell(restore(cn))
		if err != nil {
			if e := report("%v", err); e != nil {
				return nil, e
			}
			continue
		}
		nc.Primitive = c.Primitive
		nc.GrowContents(len(c.Nets), len(c.Instances))
		for _, p := range c.Ports {
			if err := nc.AddPort(restore(p.Name), p.Dir); err != nil {
				if e := report("%v", err); e != nil {
					return nil, e
				}
			}
		}
		for _, nn := range c.NetNames() {
			nt := c.Nets[nn]
			rn := nc.EnsureNet(restore(nn))
			if nt.Global {
				rn.Global = true
			}
			for _, k := range sortedKeys(nt.Attrs) {
				rn.Attrs[k] = nt.Attrs[k]
			}
		}
		for _, in := range c.InstanceNames() {
			inst := c.Instances[in]
			ni, err := nc.AddInstance(restore(in), restore(inst.Master))
			if err != nil {
				if e := report("%v", err); e != nil {
					return nil, e
				}
				continue
			}
			for _, p := range sortedKeys(inst.Conns) {
				if err := nc.Connect(ni.Name, restore(p), restore(inst.Conns[p])); err != nil {
					if e := report("%v", err); e != nil {
						return nil, e
					}
				}
			}
			for _, k := range sortedKeys(inst.Attrs) {
				ni.Attrs[k] = inst.Attrs[k]
			}
		}
	}
	out.Top = restore(nl.Top)
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// teeHoldback is how much tail the trailer tee lags the hash by. The
// trailer line is ~130 bytes; anything that keeps the whole last line
// inside the holdback identifies it exactly.
const teeHoldback = 8 << 10

// trailerTee passes input through while hashing everything except the
// final line — which it cannot identify until end of input, so it holds
// the last teeHoldback bytes out of the hash until resolve.
type trailerTee struct {
	r        io.Reader
	h        hash.Hash
	hashed   int64  // bytes fed to h: input[0:hashed]
	hashedNL int    // '\n' count in the hashed prefix
	tail     []byte // input[hashed:total]
	total    int64
}

func newTrailerTee(r io.Reader) *trailerTee {
	return &trailerTee{r: r, h: sha256.New()}
}

// Read implements io.Reader.
func (t *trailerTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.tail = append(t.tail, p[:n]...)
		t.total += int64(n)
		if over := len(t.tail) - teeHoldback; over > 0 {
			for _, b := range t.tail[:over] {
				if b == '\n' {
					t.hashedNL++
				}
			}
			t.h.Write(t.tail[:over])
			t.hashed += int64(over)
			t.tail = append(t.tail[:0], t.tail[over:]...)
		}
	}
	return n, err
}

// resolve identifies the trailer candidate after end of input: the last
// non-empty line, its position, and the sha256 of everything before it.
// ok is false when the line's start lies beyond the holdback window — a
// multi-kilobyte final line is not a trailer.
func (t *trailerTee) resolve() (line string, pos diag.Pos, sum [sha256.Size]byte, ok bool) {
	end := len(t.tail)
	for end > 0 && (t.tail[end-1] == '\n' || t.tail[end-1] == '\r') {
		end--
	}
	var startRel int
	if idx := bytes.LastIndexByte(t.tail[:end], '\n'); idx >= 0 {
		startRel = idx + 1
	} else if t.hashed > 0 {
		return "", diag.NoPos, sum, false
	}
	line = string(t.tail[startRel:end])
	nl := t.hashedNL
	for _, b := range t.tail[:startRel] {
		if b == '\n' {
			nl++
		}
	}
	pos = diag.Pos{Offset: int(t.hashed) + startRel, Line: nl + 1, Col: 1}
	t.h.Write(t.tail[:startRel])
	copy(sum[:], t.h.Sum(nil))
	return line, pos, sum, true
}

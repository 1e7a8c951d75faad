// The interchange reader. ReadStream is the package's one reader; Read
// and ReadBytes wrap it. An al.Walker drives it, under the walker's
// broken-input contract; this file holds the grammar and the end-of-input
// work. Lists marked * stream, every other item is one record:
//
//	(edif name item...)*   (cell ...), (rename alias "orig"), (design top), (hints ...)
//	(cell name item...)*   (interface (port name dir)...), (primitive), (contents ...)
//	(contents record...)*  (net name ...), (instance name (of master) (joined ...) ...)
//
// A hashing tee verifies the integrity trailer in the same pass; it
// outranks the first fault as a strict read's error, and its status
// diagnostic always comes first. (hints ...) counts pre-size the netlist
// tables before the records arrive. A lenient read lists bad renames
// ahead of the other record diagnostics, and a collision between restored
// names carries no position.
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

// ReadStream parses an interchange file under the given policy, in
// bounded memory. The diagnostics slice is returned in both outcomes; in
// lenient mode a non-nil netlist with error diagnostics means "partial
// design — these records were quarantined".
func ReadStream(r io.Reader, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	nl, diags, _, err := ReadStreamStats(r, opts)
	return nl, diags, err
}

// ReadStreamStats is ReadStream, additionally reporting streaming stats.
func ReadStreamStats(r io.Reader, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, al.StreamStats, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	tee := newTrailerTee(r)
	w := al.NewWalker(tee, col)
	st := &stream{exReader: &exReader{col: col, w: w}, tee: tee, renames: make(map[string]string), bodyStart: -1}
	nl, err := st.run(opts.RequireTrailer)
	stats := w.Stats()
	if rerr := w.Err(); rerr != nil {
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
	*exReader
	tee *trailerTee
	nl  *netlist.Netlist // built once the edif name is past

	renames    map[string]string
	badRenames []diag.Diagnostic // lenient-mode bad renames, spliced at bodyStart
	bodyStart  int               // diag count when record processing began (-1 = never)

	netsHint, instsHint int // remaining (hints ...) counts for contents pre-sizing
}

func (st *stream) run(require bool) (*netlist.Netlist, error) {
	if err := st.w.Walk("edif", st.walkEdif); err != nil {
		return nil, st.abort(err, require)
	}
	// End of input: splice in the deferred bad renames, resolve the
	// trailer, then run the end-of-parse checks (renames, manifest,
	// reconcile).
	if st.col.Mode == diag.Lenient && len(st.badRenames) > 0 {
		st.splice()
	}
	ct, terr := st.resolveTrailer(require)
	if terr != nil {
		return nil, terr
	}
	if ok, err := st.w.OneForm(); !ok {
		return nil, err
	}
	nl := st.nl
	if len(st.renames) > 0 && nl != nil {
		restore := func(alias string) string {
			if orig, ok := st.renames[alias]; ok {
				return orig
			}
			return alias
		}
		var rerr error
		nl, rerr = restoreNetlist(nl, restore, func(format string, args ...any) error {
			return st.col.Errorf("record", diag.NoPos, format, args...)
		})
		if rerr != nil {
			return nil, rerr
		}
	}
	if ct != nil && nl != nil {
		got := countElems(nl)
		if got != *ct {
			if err := st.integrityErr(diag.NoPos,
				"element manifest mismatch: trailer says cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d, parsed cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
				ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs,
				got.cells, got.ports, got.nets, got.insts, got.conns, got.attrs); err != nil {
				return nil, err
			}
		}
	}
	if nl != nil {
		if err := st.reconcile(nl); err != nil {
			return nil, err
		}
	}
	return nl, nil
}

// walkEdif walks the (edif name item...) form past its head.
func (st *stream) walkEdif(open int) error {
	if ok, err := st.w.Skip(open); !ok { // the edif name, never inspected
		return err
	}
	st.bodyStart = len(st.col.Diags)
	st.nl = netlist.New()
	return st.w.Children(open, []al.Stream{{Head: "cell", Walk: st.walkCell}}, st.topItem)
}

// topItem handles one toplevel item; cells stream and never arrive here.
func (st *stream) topItem(v al.Value, pt *al.PosTree) error {
	l, ok := v.(al.List)
	if !ok || len(l) == 0 {
		return st.col.Errorf("record", st.w.Pos(pt), "unexpected item %s", v.Repr())
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
			if st.col.Mode == diag.Strict {
				return st.col.Errorf("record", st.w.Pos(pt), "bad rename")
			}
			// Deferred: bad renames are reported before any record
			// diagnostic, so these are spliced in at end of input.
			st.badRenames = append(st.badRenames, diag.Diagnostic{
				Sev: diag.Error, Code: "record", Source: st.col.Source,
				Pos: st.w.Pos(pt), Msg: "bad rename",
			})
			return nil
		}
		st.renames[alias] = orig
	case "design":
		if len(l) < 2 {
			return st.col.Errorf("record", st.w.Pos(pt), "design needs a name")
		}
		name, err := symStr(l[1])
		if err != nil {
			return st.col.Errorf("record", st.w.Pos(pt.Kid(1)), "design name: %v", err)
		}
		st.nl.Top = name
	case "hints":
		ct := hintCounts(l)
		st.nl.Grow(ct.cells)
		st.netsHint, st.instsHint = ct.nets, ct.insts
	default:
		return st.col.Errorf("record", st.w.Pos(pt), "unknown form %q", head)
	}
	return nil
}

// walkCell walks one (cell name item...) form past its head.
func (st *stream) walkCell(open int) error {
	var c *netlist.Cell
	ok, err := st.w.Named(open, "cell", symStr, func(name string) (err error) {
		c, err = st.nl.AddCell(name)
		return err
	})
	if !ok {
		return err
	}
	contents := func(open int) error { return st.walkContents(c, open) }
	return st.w.Children(open, []al.Stream{{Head: "contents", Walk: contents}}, func(v al.Value, pt *al.PosTree) error {
		return st.readCellItem(c, v, pt)
	})
}

// walkContents walks one (contents record...) form past its head — the
// unbounded part of a large design: each (net ...) and (instance ...) is
// parsed, handled, and its bytes discarded before the next one.
func (st *stream) walkContents(c *netlist.Cell, open int) error {
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
	return st.w.Children(open, nil, func(v al.Value, pt *al.PosTree) error {
		return st.readContentsItem(c, v, pt)
	})
}

// abort finishes an abort mid-stream: the remaining input is drained so
// the integrity trailer can still be identified, and the trailer-status
// diagnostic is placed first, where every report puts it. A trailer
// integrity error outranks the body error.
func (st *stream) abort(aerr error, require bool) error {
	st.w.Drain()
	if _, terr := st.resolveTrailer(require); terr != nil {
		return terr
	}
	return aerr
}

// resolveTrailer identifies and verifies the integrity trailer at end of
// input and rotates its status diagnostic, if any, to the front of the
// report.
func (st *stream) resolveTrailer(require bool) (*elemCounts, error) {
	line, pos, sum, ok := st.tee.resolve()
	defer st.rotate(len(st.col.Diags))
	fields, found, match := frame.Parse(line, "integrity", sum)
	switch {
	case (!ok || !found) && require:
		return nil, st.integrityErr(diag.NoPos, "required integrity trailer is absent")
	case !ok || !found:
		st.col.Infof("integrity", diag.NoPos, "integrity trailer absent; content not verified")
		return nil, nil
	case !match:
		return nil, st.integrityErr(pos, "content checksum mismatch: body does not match sha256 in trailer")
	}
	ct, msg := manifestCounts(fields)
	if msg != "" {
		return nil, st.integrityErr(pos, "%s", msg)
	}
	return ct, nil
}

// rotate moves a just-appended diagnostic (if one landed after pre) to
// the front of the report.
func (st *stream) rotate(pre int) {
	d := st.col.Diags
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
	d := st.col.Diags
	idx := st.bodyStart
	if idx < 0 || idx > len(d) {
		idx = len(d)
	}
	out := make([]diag.Diagnostic, 0, len(d)+len(st.badRenames))
	out = append(out, d[:idx]...)
	out = append(out, st.badRenames...)
	out = append(out, d[idx:]...)
	st.col.Diags = out
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
	tail     []byte // the input after the hashed prefix
}

func newTrailerTee(r io.Reader) *trailerTee {
	return &trailerTee{r: r, h: sha256.New()}
}

// Read implements io.Reader.
func (t *trailerTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.tail = append(t.tail, p[:n]...)
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

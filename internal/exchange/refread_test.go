package exchange

// A frozen copy of the buffered reader the package had before ReadStream
// became its only reader: the whole input is read, parsed by
// al.ParseTracked (strict) or al.ParseRecover (lenient), the trailer is
// checked and the renames collected before any record, and names are
// restored while the netlist is built. It is the reference the one reader
// is proven against (stream_test.go). It shares with the package only
// code that resolves no positions: reconcile, integrityErr and the hints
// and name helpers; its trailer parse is frozen here too. It lives in a
// _test.go file so no dead code ships.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/netlist"
)

// refReader resolves positions against the whole input.
type refReader struct {
	*exReader
	src string
}

// refReadBytes is the buffered ReadBytes.
func refReadBytes(data []byte, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	rd := &refReader{exReader: &exReader{col: col}, src: string(data)}
	nl, err := rd.read(opts.RequireTrailer)
	if err != nil {
		return nil, col.Diags, err
	}
	if nl == nil {
		// The toplevel (edif ...) form itself was quarantined; there is
		// nothing to recover.
		return nil, col.Diags, fmt.Errorf("%w: no usable (edif ...) form", ErrFormat)
	}
	if opts.Mode == diag.Strict {
		if err := col.Err(); err != nil {
			return nil, col.Diags, err
		}
	}
	return nl, col.Diags, nil
}

// pos upgrades a parse-tree node to a line/column position.
func (rd *refReader) pos(pt *al.PosTree) diag.Pos {
	return rd.posAt(pt.Offset())
}

// posAt upgrades a byte offset to a line/column position.
func (rd *refReader) posAt(off int) diag.Pos {
	return diag.LineCol(rd.src, off)
}

func (rd *refReader) read(requireTrailer bool) (*netlist.Netlist, error) {
	trailer, terr := rd.checkTrailer(requireTrailer)
	if terr != nil {
		return nil, terr
	}

	var exprs []al.Value
	var trees []*al.PosTree
	if rd.col.Mode == diag.Lenient {
		var aborted error
		exprs, trees = al.ParseRecover(rd.src, func(off int, msg string) {
			if aborted == nil {
				aborted = rd.col.Errorf("parse", diag.LineCol(rd.src, off), "%s", msg)
			}
		})
		if aborted != nil {
			return nil, aborted
		}
	} else {
		var err error
		exprs, trees, err = al.ParseTracked(rd.src)
		if err != nil {
			return nil, rd.col.Errorf("parse", diag.NoPos, "%v", err)
		}
	}
	if len(exprs) != 1 {
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (edif ...) form, got %d", len(exprs))
	}
	top, ok := exprs[0].(al.List)
	tt := trees[0]
	if !ok || len(top) < 2 || !isSym(top[0], "edif") {
		return nil, rd.col.Errorf("parse", rd.pos(tt), "missing (edif ...) form")
	}

	// First pass: collect the rename table.
	renames := make(map[string]string)
	for i, item := range top[2:] {
		l, ok := item.(al.List)
		if !ok || len(l) == 0 {
			continue
		}
		if isSym(l[0], "rename") && len(l) == 3 {
			alias, err1 := symStr(l[1])
			orig, err2 := symStr(l[2])
			if err1 != nil || err2 != nil {
				if err := rd.col.Errorf("record", rd.pos(tt.Kid(i+2)), "bad rename"); err != nil {
					return nil, err
				}
				continue
			}
			renames[alias] = orig
		}
	}
	restore := func(alias string) string {
		if orig, ok := renames[alias]; ok {
			return orig
		}
		return alias
	}

	nl := netlist.New()
	for i, item := range top[2:] {
		it := tt.Kid(i + 2)
		l, ok := item.(al.List)
		if !ok || len(l) == 0 {
			if err := rd.col.Errorf("record", rd.pos(it), "unexpected item %s", item.Repr()); err != nil {
				return nil, err
			}
			continue
		}
		head, _ := l[0].(al.Symbol)
		switch head {
		case "rename":
			// handled in the first pass
		case "design":
			if len(l) < 2 {
				if err := rd.col.Errorf("record", rd.pos(it), "design needs a name"); err != nil {
					return nil, err
				}
				continue
			}
			name, err := symStr(l[1])
			if err != nil {
				if err := rd.col.Errorf("record", rd.pos(it.Kid(1)), "design name: %v", err); err != nil {
					return nil, err
				}
				continue
			}
			nl.Top = restore(name)
		case "cell":
			if err := rd.readCell(nl, l, it, restore); err != nil {
				return nil, err
			}
		case "hints":
			ct := hintCounts(l)
			nl.Grow(ct.cells)
		default:
			if err := rd.col.Errorf("record", rd.pos(it), "unknown form %q", head); err != nil {
				return nil, err
			}
		}
	}
	if trailer != nil {
		got := countElems(nl)
		if got != *trailer {
			if err := rd.integrityErr(diag.NoPos,
				"element manifest mismatch: trailer says cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d, parsed cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
				trailer.cells, trailer.ports, trailer.nets, trailer.insts, trailer.conns, trailer.attrs,
				got.cells, got.ports, got.nets, got.insts, got.conns, got.attrs); err != nil {
				return nil, err
			}
		}
	}
	if err := rd.reconcile(nl); err != nil {
		return nil, err
	}
	return nl, nil
}

// checkTrailer locates and verifies the integrity trailer. It returns the
// manifest counts when a trailer with a valid checksum is present, nil when
// absent (and not required).
func (rd *refReader) checkTrailer(require bool) (*elemCounts, error) {
	line, start := lastLine(rd.src)
	const prefix = "; integrity sha256:"
	if !strings.HasPrefix(line, prefix) {
		if require {
			return nil, rd.integrityErr(diag.NoPos, "required integrity trailer is absent")
		}
		rd.col.Infof("integrity", diag.NoPos, "integrity trailer absent; content not verified")
		return nil, nil
	}
	pos := diag.LineCol(rd.src, start)
	sum := sha256.Sum256([]byte(rd.src[:start]))
	ct, msg := refParseTrailerFields(line, sum)
	if msg != "" {
		return nil, rd.integrityErr(pos, "%s", msg)
	}
	return ct, nil
}

// refParseTrailerFields validates a trailer line against the body
// checksum and decodes its manifest counts. A non-empty message names the
// failure. It is frozen with the reader, so the reference pins the
// trailer verdicts too: fields split on any white space, and the
// checksum must be the lowercase hex of the body's sha256.
func refParseTrailerFields(line string, bodySum [sha256.Size]byte) (*elemCounts, string) {
	fields := strings.Fields(line[len("; "):])
	// fields[0] = "integrity", fields[1] = "sha256:<hex>", then k=v counts.
	if len(fields) < 2 || !strings.HasPrefix(fields[1], "sha256:") {
		return nil, "malformed integrity trailer"
	}
	wantSum := strings.TrimPrefix(fields[1], "sha256:")
	if hex.EncodeToString(bodySum[:]) != wantSum {
		return nil, "content checksum mismatch: body does not match sha256 in trailer"
	}
	var ct elemCounts
	seen := 0
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Sprintf("malformed count %q in integrity trailer", f)
		}
		switch k {
		case "cells":
			ct.cells = n
		case "ports":
			ct.ports = n
		case "nets":
			ct.nets = n
		case "insts":
			ct.insts = n
		case "conns":
			ct.conns = n
		case "attrs":
			ct.attrs = n
		default:
			continue
		}
		seen++
	}
	if seen != 6 {
		return nil, fmt.Sprintf("integrity trailer manifest incomplete (%d of 6 counts)", seen)
	}
	return &ct, ""
}

// lastLine returns the last non-empty line of src and its byte offset.
func lastLine(src string) (string, int) {
	end := len(src)
	for end > 0 && (src[end-1] == '\n' || src[end-1] == '\r') {
		end--
	}
	start := strings.LastIndexByte(src[:end], '\n') + 1
	return src[start:end], start
}

// readCell parses one (cell ...) form. A returned non-nil error is an
// abort; recoverable problems are reported and the offending record
// skipped.
func (rd *refReader) readCell(nl *netlist.Netlist, l al.List, lt *al.PosTree, restore func(string) string) error {
	if len(l) < 2 {
		return rd.col.Errorf("record", rd.pos(lt), "cell needs a name")
	}
	name, err := symStr(l[1])
	if err != nil {
		return rd.col.Errorf("record", rd.pos(lt.Kid(1)), "cell name: %v", err)
	}
	c, err := nl.AddCell(restore(name))
	if err != nil {
		return rd.col.Errorf("record", rd.pos(lt), "%v", err)
	}
	for i, item := range l[2:] {
		if err := rd.readCellItem(c, item, lt.Kid(i+2), restore); err != nil {
			return err
		}
	}
	return nil
}

// readCellItem handles one body item of a (cell ...) form. A non-nil
// return is an abort.
func (rd *refReader) readCellItem(c *netlist.Cell, item al.Value, it *al.PosTree, restore func(string) string) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.pos(it), "bad cell item %s", item.Repr())
	}
	head, _ := il[0].(al.Symbol)
	switch head {
	case "interface":
		return rd.readInterface(c, il, it, restore)
	case "primitive":
		c.Primitive = true
	case "contents":
		return rd.readContents(c, il, it, restore)
	default:
		return rd.col.Errorf("record", rd.pos(it), "unknown cell item %q", head)
	}
	return nil
}

func (rd *refReader) readInterface(c *netlist.Cell, il al.List, it *al.PosTree, restore func(string) string) error {
	for j, pi := range il[1:] {
		pt := it.Kid(j + 1)
		pl, ok := pi.(al.List)
		if !ok || len(pl) != 3 || !isSym(pl[0], "port") {
			if err := rd.col.Errorf("record", rd.pos(pt), "bad port %s", pi.Repr()); err != nil {
				return err
			}
			continue
		}
		pname, err1 := symStr(pl[1])
		dname, err2 := symStr(pl[2])
		if err1 != nil || err2 != nil {
			if err := rd.col.Errorf("record", rd.pos(pt), "port fields"); err != nil {
				return err
			}
			continue
		}
		dir, err := netlist.ParsePortDir(dname)
		if err != nil {
			if err := rd.col.Errorf("record", rd.pos(pt.Kid(2)), "%v", err); err != nil {
				return err
			}
			continue
		}
		if err := c.AddPort(restore(pname), dir); err != nil {
			if err := rd.col.Errorf("record", rd.pos(pt), "%v", err); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rd *refReader) readContents(c *netlist.Cell, l al.List, lt *al.PosTree, restore func(string) string) error {
	for i, item := range l[1:] {
		if err := rd.readContentsItem(c, item, lt.Kid(i+1), restore); err != nil {
			return err
		}
	}
	return nil
}

// readContentsItem handles one record of a (contents ...) form. A non-nil
// return is an abort.
func (rd *refReader) readContentsItem(c *netlist.Cell, item al.Value, it *al.PosTree, restore func(string) string) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.pos(it), "bad contents item")
	}
	head, _ := il[0].(al.Symbol)
	switch head {
	case "net":
		if len(il) < 2 {
			return rd.col.Errorf("record", rd.pos(it), "net needs a name")
		}
		name, err := symStr(il[1])
		if err != nil {
			return rd.col.Errorf("record", rd.pos(it.Kid(1)), "net name: %v", err)
		}
		nt := c.EnsureNet(restore(name))
		for _, sub := range il[2:] {
			sl, ok := sub.(al.List)
			if !ok || len(sl) == 0 {
				continue
			}
			switch {
			case isSym(sl[0], "global"):
				nt.Global = true
			case isSym(sl[0], "property") && len(sl) == 3:
				k, _ := symStr(sl[1])
				v, _ := symStr(sl[2])
				nt.Attrs[k] = v
			}
		}
	case "instance":
		return rd.readInstance(c, il, it, restore)
	default:
		return rd.col.Errorf("record", rd.pos(it), "unknown contents item %q", head)
	}
	return nil
}

func (rd *refReader) readInstance(c *netlist.Cell, il al.List, it *al.PosTree, restore func(string) string) error {
	if len(il) < 2 {
		return rd.col.Errorf("record", rd.pos(it), "instance needs a name")
	}
	name, err := symStr(il[1])
	if err != nil {
		return rd.col.Errorf("record", rd.pos(it.Kid(1)), "instance name: %v", err)
	}
	var inst *netlist.Instance
	for j, sub := range il[2:] {
		st := it.Kid(j + 2)
		sl, ok := sub.(al.List)
		if !ok || len(sl) == 0 {
			continue
		}
		switch {
		case isSym(sl[0], "of") && len(sl) == 2:
			m, err := symStr(sl[1])
			if err != nil {
				return rd.col.Errorf("record", rd.pos(st.Kid(1)), "master: %v", err)
			}
			inst, err = c.AddInstance(restore(name), restore(m))
			if err != nil {
				return rd.col.Errorf("record", rd.pos(st), "%v", err)
			}
		case isSym(sl[0], "joined"):
			if inst == nil {
				return rd.col.Errorf("record", rd.pos(st), "joined before of")
			}
			for k, ji := range sl[1:] {
				jt := st.Kid(k + 1)
				jl, ok := ji.(al.List)
				if !ok || len(jl) != 2 {
					if err := rd.col.Errorf("record", rd.pos(jt), "bad joined pair %s", ji.Repr()); err != nil {
						return err
					}
					continue
				}
				port, err1 := symStr(jl[0])
				net, err2 := symStr(jl[1])
				if err1 != nil || err2 != nil {
					if err := rd.col.Errorf("record", rd.pos(jt), "joined fields"); err != nil {
						return err
					}
					continue
				}
				if err := c.Connect(restore(name), restore(port), restore(net)); err != nil {
					if err := rd.col.Errorf("record", rd.pos(jt), "%v", err); err != nil {
						return err
					}
				}
			}
		case isSym(sl[0], "property") && len(sl) == 3:
			if inst == nil {
				return rd.col.Errorf("record", rd.pos(st), "property before of")
			}
			k, _ := symStr(sl[1])
			v, _ := symStr(sl[2])
			inst.Attrs[k] = v
		}
	}
	if inst == nil {
		return rd.col.Errorf("record", rd.pos(it), "instance %q missing (of ...)", name)
	}
	return nil
}

// Package cd serializes schematic designs in the Cadence-like dialect's
// native file format: an s-expression database in the spirit of a
// SKILL-built tool. The reader is deliberately strict — it enforces the
// dialect's explicit bus syntax and connector requirements at import time,
// the way the paper's target tool rejected data the source tool was happy
// with.
package cd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
)

// ErrFormat reports malformed cd input.
var ErrFormat = errors.New("cd: format error")

// Dialect is the Cadence-like dialect description.
var Dialect = schematic.CD

// Write serializes the design as s-expressions. Each record is appended
// into the buffered writer's free space and written back, so a record
// costs no allocation. The bytes must stay those of the reference writer
// (refwrite_test.go): their sha256 keys every cached migration.
func Write(w io.Writer, d *schematic.Design) error {
	bw := bufio.NewWriter(w)
	b := append(record(bw), "(design "...)
	b = appendSym(b, d.Name)
	b = append(b, "\n  (grid "...)
	b = strconv.AppendQuote(b, d.Grid.Name)
	bw.Write(append(b, ")\n"...))
	if len(d.Globals) > 0 {
		b = append(record(bw), "  (globals"...)
		for _, g := range d.Globals {
			b = append(b, ' ')
			b = strconv.AppendQuote(b, g)
		}
		bw.Write(append(b, ")\n"...))
	}
	libNames := make([]string, 0, len(d.Libraries))
	for n := range d.Libraries {
		libNames = append(libNames, n)
	}
	sort.Strings(libNames)
	for _, ln := range libNames {
		lib := d.Libraries[ln]
		b = append(record(bw), "  (library "...)
		bw.Write(append(appendSym(b, ln), '\n'))
		keys := make([]string, 0, len(lib.Symbols))
		for k := range lib.Symbols {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := lib.Symbols[k]
			b = append(record(bw), "    (symbol "...)
			b = append(appendSym(b, s.Name), ' ')
			b = append(appendSym(b, s.View), " (body"...)
			b = appendInts(b, s.Body.Min.X, s.Body.Min.Y, s.Body.Max.X, s.Body.Max.Y)
			bw.Write(append(b, ")\n"...))
			for _, p := range s.Pins {
				b = append(record(bw), "      (pin "...)
				b = appendInts(appendSym(b, p.Name), p.Pos.X, p.Pos.Y)
				b = append(append(b, ' '), p.Dir.String()...)
				bw.Write(append(b, ")\n"...))
			}
			for _, pr := range s.Props {
				writeProp(bw, "      ", pr)
			}
			bw.WriteString("    )\n")
		}
		bw.WriteString("  )\n")
	}
	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		b = append(record(bw), "  (cell "...)
		bw.Write(append(appendSym(b, cn), '\n'))
		for _, p := range c.Ports {
			b = append(record(bw), "    (port "...)
			b = append(append(appendSym(b, p.Name), ' '), p.Dir.String()...)
			bw.Write(append(b, ")\n"...))
		}
		for _, pg := range c.Pages {
			b = append(record(bw), "    (page"...)
			b = append(appendInts(b, pg.Index), " (size"...)
			b = appendInts(b, pg.Size.Min.X, pg.Size.Min.Y, pg.Size.Max.X, pg.Size.Max.Y)
			bw.Write(append(b, ")\n"...))
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				b = append(record(bw), "      (inst "...)
				b = append(appendSym(b, inst.Name), " (of "...)
				b = appendSymKey(b, inst.Sym)
				b = append(b, ") (at"...)
				b = appendInts(b, inst.Placement.Offset.X, inst.Placement.Offset.Y)
				b = append(append(b, ") (orient "...), inst.Placement.Orient.String()...)
				bw.Write(append(b, ")\n"...))
				for _, pr := range inst.Props {
					writeProp(bw, "        ", pr)
				}
				bw.WriteString("      )\n")
			}
			for _, wr := range pg.Wires {
				b = append(record(bw), "      (wire"...)
				for _, pt := range wr.Points {
					b = strconv.AppendInt(append(b, " ("...), int64(pt.X), 10)
					b = append(appendInts(b, pt.Y), ')')
				}
				bw.Write(append(b, ")\n"...))
			}
			for _, l := range pg.Labels {
				b = append(record(bw), "      (label "...)
				b = append(strconv.AppendQuote(b, l.Text), " (at"...)
				b = append(appendInts(b, l.At.X, l.At.Y), ") (size"...)
				b = append(appendInts(b, l.Size), ") (offset"...)
				b = appendInts(b, l.Offset.X, l.Offset.Y)
				bw.Write(append(b, "))\n"...))
			}
			for _, cx := range pg.Conns {
				b = append(append(record(bw), "      (conn "...), cx.Kind.String()...)
				b = append(strconv.AppendQuote(append(b, ' '), cx.Name), " (at"...)
				b = append(appendInts(b, cx.At.X, cx.At.Y), ") (of "...)
				b = append(appendSymKey(b, cx.Sym), ") (orient "...)
				bw.Write(append(append(b, cx.Orient.String()...), "))\n"...))
			}
			for _, tx := range pg.Texts {
				b = append(record(bw), "      (text "...)
				b = append(strconv.AppendQuote(b, tx.S), " (at"...)
				b = append(appendInts(b, tx.At.X, tx.At.Y), ") (size"...)
				b = append(appendInts(b, tx.SizePts), ") (baseline"...)
				bw.Write(append(appendInts(b, tx.BaselineOffset), "))\n"...))
			}
			bw.WriteString("    )\n")
		}
		bw.WriteString("  )\n")
	}
	bw.WriteString(")\n")
	// bufio.Writer keeps the first error of the underlying writer and
	// returns it from every later call, so Flush reports it.
	return bw.Flush()
}

func writeProp(bw *bufio.Writer, indent string, p schematic.Property) {
	b := append(append(record(bw), indent...), "(prop "...)
	b = append(appendSym(b, p.Name), ' ')
	b = append(strconv.AppendQuote(b, p.Value), " (at"...)
	b = append(appendInts(b, p.At.X, p.At.Y), ") (size"...)
	b = append(appendInts(b, p.Size), ')')
	if p.Visible {
		b = append(b, " visible"...)
	}
	bw.Write(append(b, ")\n"...))
}

// recordSpace is the free space record keeps in the writer's buffer:
// more than a generated design's longest record, far less than the
// buffer.
const recordSpace = 256

// record returns bw's free space for one record to be appended into and
// written back with bw.Write. It flushes first when less than recordSpace
// is free, so a record rarely outgrows the space it is appended into and
// reallocates. A failed flush is kept by bw and returned by Write.
func record(bw *bufio.Writer) []byte {
	if bw.Available() < recordSpace {
		bw.Flush()
	}
	return bw.AvailableBuffer()
}

// appendInts appends each of xs in decimal after a space.
func appendInts(b []byte, xs ...int) []byte {
	for _, x := range xs {
		b = strconv.AppendInt(append(b, ' '), int64(x), 10)
	}
	return b
}

// appendSymKey appends a symbol reference as "lib name view".
func appendSymKey(b []byte, k schematic.SymbolKey) []byte {
	b = append(appendSym(b, k.Lib), ' ')
	b = append(appendSym(b, k.Name), ' ')
	return appendSym(b, k.View)
}

// appendSym appends an identifier, quoting only when necessary.
func appendSym(b []byte, s string) []byte {
	if s == "" || strings.ContainsAny(s, " ()\"';\t\n") {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// ReadOptions controls strictness.
type ReadOptions struct {
	// Lint runs the CD dialect checker after parsing and fails the read on
	// violations — modeling the target tool rejecting nonconforming data.
	Lint bool
	// Mode: diag.Strict (default) aborts at the first malformed record;
	// diag.Lenient quarantines the record and continues.
	Mode diag.Mode
	// Source names the input in diagnostics ("" = "<input>").
	Source string
}

// Read parses a design from s-expression form (strict-mode entry point).
func Read(r io.Reader, opts ReadOptions) (*schematic.Design, error) {
	d, _, err := ReadStream(r, opts)
	return d, err
}

// ReadBytes is ReadStream over an in-memory input.
func ReadBytes(data []byte, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	return ReadStream(bytes.NewReader(data), opts)
}

// cdReader is the state of one read: the diagnostic collector, the
// walker that drives it and resolves positions, and the design built.
type cdReader struct {
	col *diag.Collector
	w   *al.Walker
	d   *schematic.Design // built once the design name is read
}

// readDesignItem handles one materialized direct child of the (design
// ...) form; libraries and cells never arrive here, because the reader
// walks them record by record.
func (rd *cdReader) readDesignItem(d *schematic.Design, item al.Value, it *al.PosTree) error {
	l, ok := item.(al.List)
	if !ok || len(l) == 0 {
		return rd.col.Errorf("record", rd.w.Pos(it), "unexpected item %s", item.Repr())
	}
	head, _ := l[0].(al.Symbol)
	switch head {
	case "grid":
		err := func() error {
			if len(l) < 2 {
				return fmt.Errorf("grid needs a name")
			}
			gname, err := symOrStr(l[1])
			if err != nil {
				return fmt.Errorf("grid: %v", err)
			}
			switch gname {
			case geom.GridTenth.Name:
				d.Grid = geom.GridTenth
			case geom.GridSixteenth.Name:
				d.Grid = geom.GridSixteenth
			default:
				return fmt.Errorf("unknown grid %q", gname)
			}
			return nil
		}()
		if err != nil {
			return rd.col.Errorf("record", rd.w.Pos(it), "%v", err)
		}
	case "globals":
		for j, g := range l[1:] {
			s, err := symOrStr(g)
			if err != nil {
				if aerr := rd.col.Errorf("record", rd.w.Pos(it.Kid(j+1)), "global: %v", err); aerr != nil {
					return aerr
				}
				continue
			}
			d.Globals = append(d.Globals, s)
		}
	default:
		return rd.col.Errorf("record", rd.w.Pos(it), "unknown form %q", head)
	}
	return nil
}

// readLibraryItem parses one (symbol ...) record into the library.
func (rd *cdReader) readLibraryItem(lib *schematic.Library, item al.Value, it *al.PosTree) error {
	sym, err := parseSymbol(item)
	if err != nil {
		return rd.col.Errorf("record", rd.w.Pos(it), "%v", err)
	}
	if err := lib.AddSymbol(sym); err != nil {
		return rd.col.Errorf("record", rd.w.Pos(it), "%v", err)
	}
	return nil
}

// parseSymbol parses one (symbol name view ...) form; errors are plain
// (un-wrapped) so the caller can attach a position.
func parseSymbol(item al.Value) (*schematic.Symbol, error) {
	sl, ok := item.(al.List)
	if !ok || len(sl) < 3 || !isSym(sl[0], "symbol") {
		return nil, fmt.Errorf("expected (symbol ...), got %s", item.Repr())
	}
	sname, err1 := symOrStr(sl[1])
	sview, err2 := symOrStr(sl[2])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("symbol name/view")
	}
	sym := &schematic.Symbol{Name: sname, View: sview}
	for _, sub := range sl[3:] {
		ssl, ok := sub.(al.List)
		if !ok || len(ssl) == 0 {
			return nil, fmt.Errorf("bad symbol item %s", sub.Repr())
		}
		h, _ := ssl[0].(al.Symbol)
		switch h {
		case "body":
			xs, err := nums(ssl[1:], 4)
			if err != nil {
				return nil, fmt.Errorf("body: %v", err)
			}
			sym.Body = geom.R(xs[0], xs[1], xs[2], xs[3])
		case "pin":
			if len(ssl) != 5 {
				return nil, fmt.Errorf("pin wants (pin name x y dir)")
			}
			pname, err := symOrStr(ssl[1])
			if err != nil {
				return nil, fmt.Errorf("pin name: %v", err)
			}
			xs, err := nums(ssl[2:4], 2)
			if err != nil {
				return nil, fmt.Errorf("pin pos: %v", err)
			}
			dname, err := symOrStr(ssl[4])
			if err != nil {
				return nil, fmt.Errorf("pin dir: %v", err)
			}
			dir, err := netlist.ParsePortDir(dname)
			if err != nil {
				return nil, err
			}
			sym.Pins = append(sym.Pins, schematic.SymbolPin{Name: pname, Pos: geom.Pt(xs[0], xs[1]), Dir: dir})
		case "prop":
			p, err := readProp(ssl)
			if err != nil {
				return nil, err
			}
			sym.Props = append(sym.Props, p)
		default:
			return nil, fmt.Errorf("unknown symbol item %q", h)
		}
	}
	return sym, nil
}

// readCellItem handles one materialized direct child of a (cell ...)
// form; pages never arrive here, because the reader walks them record by
// record.
func (rd *cdReader) readCellItem(cell *schematic.Cell, item al.Value, it *al.PosTree) error {
	cl, ok := item.(al.List)
	if !ok || len(cl) == 0 {
		return rd.col.Errorf("record", rd.w.Pos(it), "bad cell item %s", item.Repr())
	}
	h, _ := cl[0].(al.Symbol)
	switch h {
	case "port":
		err := func() error {
			if len(cl) != 3 {
				return fmt.Errorf("port wants (port name dir)")
			}
			pname, err1 := symOrStr(cl[1])
			dname, err2 := symOrStr(cl[2])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("port fields")
			}
			dir, err := netlist.ParsePortDir(dname)
			if err != nil {
				return err
			}
			cell.Ports = append(cell.Ports, netlist.Port{Name: pname, Dir: dir})
			return nil
		}()
		if err != nil {
			return rd.col.Errorf("record", rd.w.Pos(it), "%v", err)
		}
	default:
		return rd.col.Errorf("record", rd.w.Pos(it), "unknown cell item %q", h)
	}
	return nil
}

// readPageItem parses one page record (inst, wire, label, conn, text).
func (rd *cdReader) readPageItem(pg *schematic.Page, item al.Value, it *al.PosTree) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.w.Pos(it), "bad page item %s", item.Repr())
	}
	h, _ := il[0].(al.Symbol)
	var err error
	switch h {
	case "inst":
		var inst *schematic.Instance
		inst, err = parseInst(il)
		if err == nil {
			err = pg.AddInstance(inst)
		}
	case "wire":
		var w *schematic.Wire
		w, err = parseWire(il)
		if err == nil {
			pg.Wires = append(pg.Wires, w)
		}
	case "label":
		var lb *schematic.Label
		lb, err = parseLabel(il)
		if err == nil {
			pg.Labels = append(pg.Labels, lb)
		}
	case "conn":
		var cx *schematic.Connector
		cx, err = parseConn(il)
		if err == nil {
			pg.Conns = append(pg.Conns, cx)
		}
	case "text":
		var tx *schematic.Text
		tx, err = parseText(il)
		if err == nil {
			pg.Texts = append(pg.Texts, tx)
		}
	default:
		err = fmt.Errorf("unknown page item %q", h)
	}
	if err != nil {
		return rd.col.Errorf("record", rd.w.Pos(it), "%v", err)
	}
	return nil
}

func parseInst(il al.List) (*schematic.Instance, error) {
	if len(il) < 2 {
		return nil, fmt.Errorf("inst needs a name")
	}
	inst := &schematic.Instance{}
	iname, err := symOrStr(il[1])
	if err != nil {
		return nil, fmt.Errorf("inst name: %v", err)
	}
	inst.Name = iname
	for _, sub := range il[2:] {
		sl, ok := sub.(al.List)
		if !ok || len(sl) == 0 {
			return nil, fmt.Errorf("bad inst item %s", sub.Repr())
		}
		sh, _ := sl[0].(al.Symbol)
		switch sh {
		case "of":
			if len(sl) != 4 {
				return nil, fmt.Errorf("of wants lib name view")
			}
			lib, e1 := symOrStr(sl[1])
			nm, e2 := symOrStr(sl[2])
			vw, e3 := symOrStr(sl[3])
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fmt.Errorf("of fields")
			}
			inst.Sym = schematic.SymbolKey{Lib: lib, Name: nm, View: vw}
		case "at":
			xs, err := nums(sl[1:], 2)
			if err != nil {
				return nil, fmt.Errorf("at: %v", err)
			}
			inst.Placement.Offset = geom.Pt(xs[0], xs[1])
		case "orient":
			if len(sl) != 2 {
				return nil, fmt.Errorf("orient wants a name")
			}
			oname, err := symOrStr(sl[1])
			if err != nil {
				return nil, fmt.Errorf("orient: %v", err)
			}
			o, err := geom.ParseOrientation(oname)
			if err != nil {
				return nil, err
			}
			inst.Placement.Orient = o
		case "prop":
			p, err := readProp(sl)
			if err != nil {
				return nil, err
			}
			inst.Props = append(inst.Props, p)
		default:
			return nil, fmt.Errorf("unknown inst item %q", sh)
		}
	}
	return inst, nil
}

func parseWire(il al.List) (*schematic.Wire, error) {
	var pts []geom.Point
	for _, sub := range il[1:] {
		pl, ok := sub.(al.List)
		if !ok || len(pl) != 2 {
			return nil, fmt.Errorf("wire point %s", sub.Repr())
		}
		xs, err := nums(pl, 2)
		if err != nil {
			return nil, fmt.Errorf("wire point: %v", err)
		}
		pts = append(pts, geom.Pt(xs[0], xs[1]))
	}
	return &schematic.Wire{Points: pts}, nil
}

func parseLabel(il al.List) (*schematic.Label, error) {
	if len(il) < 2 {
		return nil, fmt.Errorf("label needs text")
	}
	lb := &schematic.Label{}
	txt, err := symOrStr(il[1])
	if err != nil {
		return nil, fmt.Errorf("label text: %v", err)
	}
	lb.Text = txt
	for _, sub := range il[2:] {
		sl, _ := sub.(al.List)
		if len(sl) == 0 {
			continue
		}
		sh, _ := sl[0].(al.Symbol)
		switch sh {
		case "at":
			xs, err := nums(sl[1:], 2)
			if err != nil {
				return nil, fmt.Errorf("label at: %v", err)
			}
			lb.At = geom.Pt(xs[0], xs[1])
		case "size":
			xs, err := nums(sl[1:], 1)
			if err != nil {
				return nil, fmt.Errorf("label size: %v", err)
			}
			lb.Size = xs[0]
		case "offset":
			xs, err := nums(sl[1:], 2)
			if err != nil {
				return nil, fmt.Errorf("label offset: %v", err)
			}
			lb.Offset = geom.Pt(xs[0], xs[1])
		}
	}
	return lb, nil
}

func parseConn(il al.List) (*schematic.Connector, error) {
	if len(il) < 3 {
		return nil, fmt.Errorf("conn wants kind and name")
	}
	kname, err := symOrStr(il[1])
	if err != nil {
		return nil, fmt.Errorf("conn kind: %v", err)
	}
	kind, err := schematic.ParseConnKind(kname)
	if err != nil {
		return nil, err
	}
	cname, err := symOrStr(il[2])
	if err != nil {
		return nil, fmt.Errorf("conn name: %v", err)
	}
	cx := &schematic.Connector{Kind: kind, Name: cname}
	for _, sub := range il[3:] {
		sl, _ := sub.(al.List)
		if len(sl) == 0 {
			continue
		}
		sh, _ := sl[0].(al.Symbol)
		switch sh {
		case "at":
			xs, err := nums(sl[1:], 2)
			if err != nil {
				return nil, fmt.Errorf("conn at: %v", err)
			}
			cx.At = geom.Pt(xs[0], xs[1])
		case "of":
			if len(sl) != 4 {
				return nil, fmt.Errorf("conn of wants 3 parts")
			}
			lib, e1 := symOrStr(sl[1])
			nm, e2 := symOrStr(sl[2])
			vw, e3 := symOrStr(sl[3])
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fmt.Errorf("conn of fields")
			}
			cx.Sym = schematic.SymbolKey{Lib: lib, Name: nm, View: vw}
		case "orient":
			if len(sl) != 2 {
				return nil, fmt.Errorf("conn orient wants a name")
			}
			oname, err := symOrStr(sl[1])
			if err != nil {
				return nil, fmt.Errorf("conn orient: %v", err)
			}
			o, err := geom.ParseOrientation(oname)
			if err != nil {
				return nil, err
			}
			cx.Orient = o
		}
	}
	return cx, nil
}

func parseText(il al.List) (*schematic.Text, error) {
	if len(il) < 2 {
		return nil, fmt.Errorf("text needs a string")
	}
	tx := &schematic.Text{}
	s, err := symOrStr(il[1])
	if err != nil {
		return nil, fmt.Errorf("text: %v", err)
	}
	tx.S = s
	for _, sub := range il[2:] {
		sl, _ := sub.(al.List)
		if len(sl) == 0 {
			continue
		}
		sh, _ := sl[0].(al.Symbol)
		switch sh {
		case "at":
			xs, err := nums(sl[1:], 2)
			if err != nil {
				return nil, fmt.Errorf("text at: %v", err)
			}
			tx.At = geom.Pt(xs[0], xs[1])
		case "size":
			xs, err := nums(sl[1:], 1)
			if err != nil {
				return nil, fmt.Errorf("text size: %v", err)
			}
			tx.SizePts = xs[0]
		case "baseline":
			xs, err := nums(sl[1:], 1)
			if err != nil {
				return nil, fmt.Errorf("text baseline: %v", err)
			}
			tx.BaselineOffset = xs[0]
		}
	}
	return tx, nil
}

func readProp(l al.List) (schematic.Property, error) {
	var p schematic.Property
	if len(l) < 3 {
		return p, fmt.Errorf("prop wants name and value")
	}
	name, err := symOrStr(l[1])
	if err != nil {
		return p, fmt.Errorf("prop name: %v", err)
	}
	val, err := symOrStr(l[2])
	if err != nil {
		return p, fmt.Errorf("prop value: %v", err)
	}
	p.Name, p.Value = name, val
	for _, sub := range l[3:] {
		switch sv := sub.(type) {
		case al.Symbol:
			if sv == "visible" {
				p.Visible = true
			}
		case al.List:
			if len(sv) == 0 {
				continue
			}
			sh, _ := sv[0].(al.Symbol)
			switch sh {
			case "at":
				xs, err := nums(sv[1:], 2)
				if err != nil {
					return p, fmt.Errorf("prop at: %v", err)
				}
				p.At = geom.Pt(xs[0], xs[1])
			case "size":
				xs, err := nums(sv[1:], 1)
				if err != nil {
					return p, fmt.Errorf("prop size: %v", err)
				}
				p.Size = xs[0]
			}
		}
	}
	return p, nil
}

func isSym(v al.Value, s string) bool {
	sym, ok := v.(al.Symbol)
	return ok && string(sym) == s
}

func symOrStr(v al.Value) (string, error) {
	switch x := v.(type) {
	case al.Symbol:
		return string(x), nil
	case al.Str:
		return string(x), nil
	case al.Num:
		return x.Repr(), nil
	default:
		return "", fmt.Errorf("expected name, got %s", v.Repr())
	}
}

func nums(vs []al.Value, n int) ([]int, error) {
	if len(vs) != n {
		return nil, fmt.Errorf("want %d numbers, got %d", n, len(vs))
	}
	out := make([]int, n)
	for i, v := range vs {
		num, ok := v.(al.Num)
		if !ok {
			return nil, fmt.Errorf("not a number: %s", v.Repr())
		}
		out[i] = int(num)
	}
	return out, nil
}

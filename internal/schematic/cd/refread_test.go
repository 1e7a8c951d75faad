package cd

// A frozen copy of the buffered reader the package had before ReadStream
// became its only reader: the whole input is read and parsed by
// al.ParseTracked (strict) or al.ParseRecover (lenient), then the design
// is built from the parse tree. It is the reference the one reader is
// proven against (stream_test.go). It shares with the package only code
// that resolves no positions: the record parsers (parseSymbol, parseInst,
// ...) and schematic.Reconcile. It lives in a _test.go file so no dead
// code ships.

import (
	"fmt"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
)

// refReader resolves positions against the whole input.
type refReader struct {
	src string
	col *diag.Collector
}

// refReadBytes is the buffered ReadBytes.
func refReadBytes(data []byte, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	rd := &refReader{src: string(data), col: col}
	d, err := rd.read(opts.Lint)
	if err != nil {
		return nil, col.Diags, err
	}
	if d == nil {
		// The toplevel (design ...) form itself was quarantined; there is
		// nothing to recover.
		return nil, col.Diags, fmt.Errorf("%w: no usable (design ...) form", ErrFormat)
	}
	if err := schematic.Reconcile(d, col); err != nil {
		return nil, col.Diags, err
	}
	if opts.Mode == diag.Strict {
		if err := col.Err(); err != nil {
			return nil, col.Diags, err
		}
	}
	return d, col.Diags, nil
}

func (rd *refReader) pos(pt *al.PosTree) diag.Pos {
	return rd.posAt(pt.Offset())
}

// posAt upgrades a byte offset to a line/column position.
func (rd *refReader) posAt(off int) diag.Pos {
	return diag.LineCol(rd.src, off)
}

func (rd *refReader) read(lint bool) (*schematic.Design, error) {
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
		return nil, rd.col.Errorf("parse", diag.NoPos, "expected one (design ...) form, got %d", len(exprs))
	}
	top, ok := exprs[0].(al.List)
	tt := trees[0]
	if !ok || len(top) < 2 || !isSym(top[0], "design") {
		return nil, rd.col.Errorf("parse", rd.pos(tt), "missing (design ...) form")
	}
	name, err := symOrStr(top[1])
	if err != nil {
		return nil, rd.col.Errorf("record", rd.pos(tt.Kid(1)), "design name: %v", err)
	}
	d := schematic.NewDesign(name, geom.GridSixteenth)
	for i, item := range top[2:] {
		if err := rd.readDesignItem(d, item, tt.Kid(i+2)); err != nil {
			return nil, err
		}
	}
	if lint {
		if vs := schematic.CD.Check(d); len(vs) > 0 {
			if err := rd.col.Errorf("lint", diag.NoPos, "dialect violations: %d (first: %s)", len(vs), vs[0]); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// readDesignItem handles one direct child of the (design ...) form.
func (rd *refReader) readDesignItem(d *schematic.Design, item al.Value, it *al.PosTree) error {
	l, ok := item.(al.List)
	if !ok || len(l) == 0 {
		return rd.col.Errorf("record", rd.pos(it), "unexpected item %s", item.Repr())
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
			return rd.col.Errorf("record", rd.pos(it), "%v", err)
		}
	case "globals":
		for j, g := range l[1:] {
			s, err := symOrStr(g)
			if err != nil {
				if aerr := rd.col.Errorf("record", rd.pos(it.Kid(j+1)), "global: %v", err); aerr != nil {
					return aerr
				}
				continue
			}
			d.Globals = append(d.Globals, s)
		}
	case "library":
		return rd.readLibrary(d, l, it)
	case "cell":
		return rd.readCell(d, l, it)
	default:
		return rd.col.Errorf("record", rd.pos(it), "unknown form %q", head)
	}
	return nil
}

func (rd *refReader) readLibrary(d *schematic.Design, l al.List, lt *al.PosTree) error {
	if len(l) < 2 {
		return rd.col.Errorf("record", rd.pos(lt), "library needs a name")
	}
	name, err := symOrStr(l[1])
	if err != nil {
		return rd.col.Errorf("record", rd.pos(lt.Kid(1)), "library name: %v", err)
	}
	lib := d.EnsureLibrary(name)
	for i, item := range l[2:] {
		if err := rd.readLibraryItem(lib, item, lt.Kid(i+2)); err != nil {
			return err
		}
	}
	return nil
}

// readLibraryItem parses one (symbol ...) record into the library.
func (rd *refReader) readLibraryItem(lib *schematic.Library, item al.Value, it *al.PosTree) error {
	sym, err := parseSymbol(item)
	if err != nil {
		return rd.col.Errorf("record", rd.pos(it), "%v", err)
	}
	if err := lib.AddSymbol(sym); err != nil {
		return rd.col.Errorf("record", rd.pos(it), "%v", err)
	}
	return nil
}

func (rd *refReader) readCell(d *schematic.Design, l al.List, lt *al.PosTree) error {
	if len(l) < 2 {
		return rd.col.Errorf("record", rd.pos(lt), "cell needs a name")
	}
	name, err := symOrStr(l[1])
	if err != nil {
		return rd.col.Errorf("record", rd.pos(lt.Kid(1)), "cell name: %v", err)
	}
	cell, err := d.AddCell(name)
	if err != nil {
		return rd.col.Errorf("record", rd.pos(lt), "%v", err)
	}
	for i, item := range l[2:] {
		if err := rd.readCellItem(cell, item, lt.Kid(i+2)); err != nil {
			return err
		}
	}
	return nil
}

// readCellItem handles one direct child of a (cell ...) form.
func (rd *refReader) readCellItem(cell *schematic.Cell, item al.Value, it *al.PosTree) error {
	cl, ok := item.(al.List)
	if !ok || len(cl) == 0 {
		return rd.col.Errorf("record", rd.pos(it), "bad cell item %s", item.Repr())
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
			return rd.col.Errorf("record", rd.pos(it), "%v", err)
		}
	case "page":
		return rd.readPage(cell, cl, it)
	default:
		return rd.col.Errorf("record", rd.pos(it), "unknown cell item %q", h)
	}
	return nil
}

func (rd *refReader) readPage(cell *schematic.Cell, l al.List, lt *al.PosTree) error {
	var size geom.Rect
	body := l
	bodyStart := len(l) // consume nothing by default
	if len(l) >= 2 {
		bodyStart = 2 // (page index ...)
	}
	if len(l) >= 3 {
		if sl, ok := l[2].(al.List); ok && len(sl) == 5 && isSym(sl[0], "size") {
			xs, err := nums(sl[1:], 4)
			if err != nil {
				if aerr := rd.col.Errorf("record", rd.pos(lt.Kid(2)), "page size: %v", err); aerr != nil {
					return aerr
				}
			} else {
				size = geom.R(xs[0], xs[1], xs[2], xs[3])
			}
			bodyStart = 3
		}
	}
	body = l[bodyStart:]
	pg := cell.AddPage(size)
	for i, item := range body {
		if err := rd.readPageItem(pg, item, lt.Kid(i+bodyStart)); err != nil {
			return err
		}
	}
	return nil
}

// readPageItem parses one page record (inst, wire, label, conn, text).
func (rd *refReader) readPageItem(pg *schematic.Page, item al.Value, it *al.PosTree) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.pos(it), "bad page item %s", item.Repr())
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
		return rd.col.Errorf("record", rd.pos(it), "%v", err)
	}
	return nil
}

// The cd reader. ReadStream is the package's one reader; Read and
// ReadBytes wrap it. An al.Walker drives it, under the walker's
// broken-input contract; this file holds the grammar. Lists marked *
// stream, every other item is one record:
//
//	(design name item...)*    (grid "name"), (globals ...), (library ...), (cell ...)
//	(library name symbol...)* (symbol name view ...)
//	(cell name item...)*      (port name dir), (page ...)
//	(page index record...)*   an optional (size x0 y0 x1 y1) first, then
//	                          (inst ...), (wire ...), (label ...), (conn ...), (text ...)
package cd

import (
	"fmt"
	"io"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/geom"
	"cadinterop/internal/schematic"
)

// ReadStream parses a design under the given policy, in bounded memory.
// Quarantine granularity is the record: a malformed symbol, port,
// instance, wire, label, connector or text form is skipped with a
// position-carrying diagnostic and the rest of the design is still
// imported.
func ReadStream(r io.Reader, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, error) {
	d, diags, _, err := ReadStreamStats(r, opts)
	return d, diags, err
}

// ReadStreamStats is ReadStream, additionally reporting streaming stats.
func ReadStreamStats(r io.Reader, opts ReadOptions) (*schematic.Design, []diag.Diagnostic, al.StreamStats, error) {
	col := diag.New(opts.Mode, opts.Source, ErrFormat)
	rd := &cdReader{col: col, w: al.NewWalker(r, col)}
	d, err := rd.run(opts.Lint)
	stats := rd.w.Stats()
	if rerr := rd.w.Err(); rerr != nil {
		return nil, col.Diags, stats, rerr
	}
	if err != nil {
		return nil, col.Diags, stats, err
	}
	if d == nil {
		return nil, col.Diags, stats, fmt.Errorf("%w: no usable (design ...) form", ErrFormat)
	}
	if err := schematic.Reconcile(d, col); err != nil {
		return nil, col.Diags, stats, err
	}
	if opts.Mode == diag.Strict {
		if cerr := col.Err(); cerr != nil {
			return nil, col.Diags, stats, cerr
		}
	}
	return d, col.Diags, stats, nil
}

func (rd *cdReader) run(lint bool) (*schematic.Design, error) {
	if err := rd.w.Walk("design", rd.walkDesign); err != nil {
		return nil, err
	}
	if ok, err := rd.w.OneForm(); !ok {
		return nil, err
	}
	if rd.d != nil && lint {
		if vs := schematic.CD.Check(rd.d); len(vs) > 0 {
			if err := rd.col.Errorf("lint", diag.NoPos, "dialect violations: %d (first: %s)", len(vs), vs[0]); err != nil {
				return nil, err
			}
		}
	}
	return rd.d, nil
}

// walkDesign walks the (design name item...) form past its head.
func (rd *cdReader) walkDesign(open int) error {
	ok, err := rd.w.Named(open, "design", symOrStr, func(name string) error {
		rd.d = schematic.NewDesign(name, geom.GridSixteenth)
		return nil
	})
	if !ok {
		return err
	}
	streams := []al.Stream{{Head: "library", Walk: rd.walkLibrary}, {Head: "cell", Walk: rd.walkCell}}
	return rd.w.Children(open, streams, func(v al.Value, pt *al.PosTree) error {
		return rd.readDesignItem(rd.d, v, pt)
	})
}

// walkLibrary walks one (library name symbol...) form past its head.
func (rd *cdReader) walkLibrary(open int) error {
	var lib *schematic.Library
	ok, err := rd.w.Named(open, "library", symOrStr, func(name string) error {
		lib = rd.d.EnsureLibrary(name)
		return nil
	})
	if !ok {
		return err
	}
	return rd.w.Children(open, nil, func(v al.Value, pt *al.PosTree) error {
		return rd.readLibraryItem(lib, v, pt)
	})
}

// walkCell walks one (cell name item...) form past its head.
func (rd *cdReader) walkCell(open int) error {
	var cell *schematic.Cell
	ok, err := rd.w.Named(open, "cell", symOrStr, func(name string) (err error) {
		cell, err = rd.d.AddCell(name)
		return err
	})
	if !ok {
		return err
	}
	page := func(open int) error { return rd.walkPage(cell, open) }
	return rd.w.Children(open, []al.Stream{{Head: "page", Walk: page}}, func(v al.Value, pt *al.PosTree) error {
		return rd.readCellItem(cell, v, pt)
	})
}

// walkPage walks one (page index (size ...)? record...) form past its
// head — the unbounded part of a large schematic. The page is kept once
// the list goes on past its index: (page) and (page 1) keep an empty one.
func (rd *cdReader) walkPage(cell *schematic.Cell, open int) error {
	if ok, err := rd.w.Skip(open); !ok { // the page index, never inspected
		return err
	}
	lead, ok, err := rd.w.More(open)
	if !ok {
		return err
	}
	pg := cell.AddPage(geom.Rect{})
	return rd.w.Children(open, nil, func(v al.Value, pt *al.PosTree) error {
		// A (size x0 y0 x1 y1) right after the index sizes the page;
		// anywhere else it is an ordinary record.
		if sl, ok := v.(al.List); ok && pt.Offset() == lead && len(sl) == 5 && isSym(sl[0], "size") {
			xs, err := nums(sl[1:], 4)
			if err != nil {
				return rd.col.Errorf("record", rd.w.Pos(pt), "page size: %v", err)
			}
			pg.Size = geom.R(xs[0], xs[1], xs[2], xs[3])
			return nil
		}
		return rd.readPageItem(pg, v, pt)
	})
}

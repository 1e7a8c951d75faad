package cd

// A frozen copy of the fmt-based writer the package had before Write
// appended its records into the buffered writer's free space. It is the
// reference Write is proven byte-identical against (write_test.go): the
// sha256 of a design's cd form keys cached migrations, so any byte Write
// changed would orphan every stored entry. It lives in a _test.go file so
// no dead code ships.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cadinterop/internal/schematic"
)

// refWrite is the fmt-based Write.
func refWrite(w io.Writer, d *schematic.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(design %s\n  (grid %s)\n", refQuoteSym(d.Name), strconv.Quote(d.Grid.Name))
	if len(d.Globals) > 0 {
		fmt.Fprintf(bw, "  (globals")
		for _, g := range d.Globals {
			fmt.Fprintf(bw, " %s", strconv.Quote(g))
		}
		fmt.Fprintf(bw, ")\n")
	}
	libNames := make([]string, 0, len(d.Libraries))
	for n := range d.Libraries {
		libNames = append(libNames, n)
	}
	sort.Strings(libNames)
	for _, ln := range libNames {
		lib := d.Libraries[ln]
		fmt.Fprintf(bw, "  (library %s\n", refQuoteSym(ln))
		keys := make([]string, 0, len(lib.Symbols))
		for k := range lib.Symbols {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := lib.Symbols[k]
			fmt.Fprintf(bw, "    (symbol %s %s (body %d %d %d %d)\n", refQuoteSym(s.Name), refQuoteSym(s.View),
				s.Body.Min.X, s.Body.Min.Y, s.Body.Max.X, s.Body.Max.Y)
			for _, p := range s.Pins {
				fmt.Fprintf(bw, "      (pin %s %d %d %s)\n", refQuoteSym(p.Name), p.Pos.X, p.Pos.Y, p.Dir)
			}
			for _, pr := range s.Props {
				refWriteProp(bw, "      ", pr)
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		fmt.Fprintf(bw, "  (cell %s\n", refQuoteSym(cn))
		for _, p := range c.Ports {
			fmt.Fprintf(bw, "    (port %s %s)\n", refQuoteSym(p.Name), p.Dir)
		}
		for _, pg := range c.Pages {
			fmt.Fprintf(bw, "    (page %d (size %d %d %d %d)\n", pg.Index,
				pg.Size.Min.X, pg.Size.Min.Y, pg.Size.Max.X, pg.Size.Max.Y)
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				fmt.Fprintf(bw, "      (inst %s (of %s %s %s) (at %d %d) (orient %s)\n",
					refQuoteSym(inst.Name), refQuoteSym(inst.Sym.Lib), refQuoteSym(inst.Sym.Name), refQuoteSym(inst.Sym.View),
					inst.Placement.Offset.X, inst.Placement.Offset.Y, inst.Placement.Orient)
				for _, pr := range inst.Props {
					refWriteProp(bw, "        ", pr)
				}
				fmt.Fprintf(bw, "      )\n")
			}
			for _, wr := range pg.Wires {
				fmt.Fprintf(bw, "      (wire")
				for _, pt := range wr.Points {
					fmt.Fprintf(bw, " (%d %d)", pt.X, pt.Y)
				}
				fmt.Fprintf(bw, ")\n")
			}
			for _, l := range pg.Labels {
				fmt.Fprintf(bw, "      (label %s (at %d %d) (size %d) (offset %d %d))\n",
					strconv.Quote(l.Text), l.At.X, l.At.Y, l.Size, l.Offset.X, l.Offset.Y)
			}
			for _, cx := range pg.Conns {
				fmt.Fprintf(bw, "      (conn %s %s (at %d %d) (of %s %s %s) (orient %s))\n",
					cx.Kind, strconv.Quote(cx.Name), cx.At.X, cx.At.Y,
					refQuoteSym(cx.Sym.Lib), refQuoteSym(cx.Sym.Name), refQuoteSym(cx.Sym.View), cx.Orient)
			}
			for _, tx := range pg.Texts {
				fmt.Fprintf(bw, "      (text %s (at %d %d) (size %d) (baseline %d))\n",
					strconv.Quote(tx.S), tx.At.X, tx.At.Y, tx.SizePts, tx.BaselineOffset)
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}

func refWriteProp(w io.Writer, indent string, p schematic.Property) {
	vis := ""
	if p.Visible {
		vis = " visible"
	}
	fmt.Fprintf(w, "%s(prop %s %s (at %d %d) (size %d)%s)\n", indent,
		refQuoteSym(p.Name), strconv.Quote(p.Value), p.At.X, p.At.Y, p.Size, vis)
}

// refQuoteSym emits an identifier, quoting only when necessary.
func refQuoteSym(s string) string {
	if s == "" || strings.ContainsAny(s, " ()\"';\t\n") {
		return strconv.Quote(s)
	}
	return s
}

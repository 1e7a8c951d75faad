package workgen

import (
	"bufio"
	"fmt"
	"io"

	"cadinterop/internal/frame"
	"cadinterop/internal/netlist"
)

// Scale workloads: flat netlists of 10⁵–10⁶ nets for exercising the
// streaming interchange path at design sizes where materializing
// everything in memory is the bottleneck being studied.
//
// Two emitters share one deterministic plan (scaleStep):
//
//   - ScaleNetlist builds the in-memory netlist.Netlist — fine up to ~10⁵
//     nets, and the semantic reference for tests.
//   - ScaleExchange writes the interchange text for the same design
//     straight to an io.Writer in bounded memory (one bufio buffer), with
//     the (hints ...) pre-sizing record and the integrity trailer both on.
//     Its output is byte-identical to exchange.Write(ScaleNetlist(opts),
//     WriteOptions{Trailer: true, Hints: true}) — pinned by test — so a
//     10⁶-net file can be produced, or piped directly into the streaming
//     reader, without a 10⁶-net heap at either end.

// ScaleOptions sizes a scale workload.
type ScaleOptions struct {
	// Nets is the number of nets in the flat top cell (minimum 2). The
	// design is a buffer chain net0→net1→… with seeded NAND2 cross-links
	// back to earlier nets, so connectivity is irregular but reproducible.
	Nets int
	// Seed drives the cross-link PRNG; same seed, same design, byte for
	// byte.
	Seed int64
}

// ScaleInfo is the element manifest of an emitted scale design.
type ScaleInfo struct {
	Cells, Ports, Nets, Insts, Conns, Attrs int
	// Bytes is the total interchange output size including the trailer
	// (ScaleExchange only; zero from scaleCount).
	Bytes int64
}

func (o ScaleOptions) nets() int {
	if o.Nets < 2 {
		return 2
	}
	return o.Nets
}

// scaleStep advances the plan PRNG and decides instance i (driving net i+1
// from net i): master cell, and for NAND2 the earlier net its B input taps.
// A split-mix step keeps it allocation-free and identical on every walk.
func scaleStep(x *uint64, i int) (master string, cross int) {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if i > 0 && z%3 == 0 {
		return "NAND2", int((z >> 8) % uint64(i))
	}
	return "BUF", 0
}

// Element decoration: every 16th net carries a criticality property, every
// 64th instance a slack property, so the attrs manifest stays non-trivial.
func scaleNetAttr(i int) bool  { return i%16 == 0 }
func scaleInstAttr(i int) bool { return i%64 == 0 }

func scaleName(prefix string, i int) string {
	return fmt.Sprintf("%s%07d", prefix, i)
}

// scaleCount walks the plan without building anything and returns the
// element manifest — the hints the emitter writes before any record.
func scaleCount(opts ScaleOptions) ScaleInfo {
	n := opts.nets()
	info := ScaleInfo{Cells: 3, Ports: 7, Nets: n, Insts: n - 1}
	x := uint64(opts.Seed)
	for i := 0; i < n-1; i++ {
		if master, _ := scaleStep(&x, i); master == "NAND2" {
			info.Conns += 3
		} else {
			info.Conns += 2
		}
		if scaleInstAttr(i) {
			info.Attrs++
		}
	}
	for i := 0; i < n; i++ {
		if scaleNetAttr(i) {
			info.Attrs++
		}
	}
	return info
}

// ScaleNetlist builds the scale design in memory, pre-sizing every table
// from the plan so construction does not rehash on the hot path.
func ScaleNetlist(opts ScaleOptions) *netlist.Netlist {
	n := opts.nets()
	nl := netlist.New()
	nl.Grow(3)
	nl.Top = "top"

	buf, _ := nl.AddCell("BUF")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	nand, _ := nl.AddCell("NAND2")
	nand.Primitive = true
	nand.AddPort("A", netlist.Input)
	nand.AddPort("B", netlist.Input)
	nand.AddPort("Y", netlist.Output)

	top, _ := nl.AddCell("top")
	top.AddPort("in", netlist.Input)
	top.AddPort("out", netlist.Output)
	top.GrowContents(n, n-1)
	for i := 0; i < n; i++ {
		nt := top.EnsureNet(scaleName("n", i))
		if scaleNetAttr(i) {
			nt.Attrs["crit"] = "1"
		}
	}
	x := uint64(opts.Seed)
	for i := 0; i < n-1; i++ {
		master, cross := scaleStep(&x, i)
		name := scaleName("u", i)
		inst, _ := top.AddInstance(name, master)
		top.Connect(name, "A", scaleName("n", i))
		if master == "NAND2" {
			top.Connect(name, "B", scaleName("n", cross))
		}
		top.Connect(name, "Y", scaleName("n", i+1))
		if scaleInstAttr(i) {
			inst.Attrs["slack"] = "0"
		}
	}
	return nl
}

// ScaleExchange streams the scale design's interchange text to w: hints
// record, body in canonical (sorted) order, sha256 integrity trailer.
// Memory stays bounded by one write buffer regardless of opts.Nets; the
// checksum is accumulated as the body streams past (internal/frame).
func ScaleExchange(w io.Writer, opts ScaleOptions) (ScaleInfo, error) {
	info := scaleCount(opts)
	n := info.Nets

	fw := frame.NewWriter(w)
	bw := bufio.NewWriterSize(fw, 1<<16)

	fmt.Fprintf(bw, "(edif top\n")
	fmt.Fprintf(bw, "  (hints (cells %d) (ports %d) (nets %d) (insts %d) (conns %d) (attrs %d))\n",
		info.Cells, info.Ports, info.Nets, info.Insts, info.Conns, info.Attrs)
	fmt.Fprintf(bw, "  (cell BUF\n    (interface (port A input) (port Y output))\n    (primitive)\n  )\n")
	fmt.Fprintf(bw, "  (cell NAND2\n    (interface (port A input) (port B input) (port Y output))\n    (primitive)\n  )\n")
	fmt.Fprintf(bw, "  (cell top\n    (interface (port in input) (port out output))\n")
	fmt.Fprintf(bw, "    (contents\n")
	for i := 0; i < n; i++ {
		if scaleNetAttr(i) {
			fmt.Fprintf(bw, "      (net %s (property crit \"1\"))\n", scaleName("n", i))
		} else {
			fmt.Fprintf(bw, "      (net %s)\n", scaleName("n", i))
		}
	}
	x := uint64(opts.Seed)
	for i := 0; i < n-1; i++ {
		master, cross := scaleStep(&x, i)
		name := scaleName("u", i)
		if master == "NAND2" {
			fmt.Fprintf(bw, "      (instance %s (of NAND2) (joined (A %s) (B %s) (Y %s))",
				name, scaleName("n", i), scaleName("n", cross), scaleName("n", i+1))
		} else {
			fmt.Fprintf(bw, "      (instance %s (of BUF) (joined (A %s) (Y %s))",
				name, scaleName("n", i), scaleName("n", i+1))
		}
		if scaleInstAttr(i) {
			fmt.Fprintf(bw, " (property slack \"0\")")
		}
		fmt.Fprintf(bw, ")\n")
	}
	fmt.Fprintf(bw, "    )\n  )\n  (design top)\n)\n")
	if err := bw.Flush(); err != nil {
		return info, err
	}

	var err error
	info.Bytes, err = fw.Seal("integrity", fmt.Sprintf("cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
		info.Cells, info.Ports, info.Nets, info.Insts, info.Conns, info.Attrs))
	return info, err
}

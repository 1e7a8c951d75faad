// Package exchange is a neutral netlist interchange format in the EDIF
// tradition — the standards answer to the paper's Section 1 observation
// that "companies who wish to use design information from other groups have
// found the limiting factor to be the format of the data itself."
//
// Like real EDIF, the format is s-expressions, and like real EDIF it has a
// rename mechanism: when the consuming tool cannot accept a name (length
// limits, keyword collisions), the writer externalizes a legal alias and
// records `(rename alias "original")` so the identity survives the trip.
// The reader restores original names, so a round trip through even a
// heavily restricted consumer is lossless — which is precisely what ad-hoc
// vendor formats of the era failed to guarantee.
package exchange

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/frame"
	"cadinterop/internal/naming"
	"cadinterop/internal/netlist"
)

// ErrFormat reports malformed interchange input.
var ErrFormat = errors.New("exchange: format error")

// ErrIntegrity reports a failed round-trip integrity check: the trailer
// checksum or element manifest does not match the content, or a required
// trailer is absent.
var ErrIntegrity = errors.New("exchange: integrity check failed")

// WriteOptions models the consuming tool's name restrictions.
type WriteOptions struct {
	// NameLimit truncates externalized names to this many significant
	// characters (0 = unlimited). Originals are preserved via renames.
	NameLimit int
	// VHDLSafe additionally renames VHDL keywords and illegal characters.
	VHDLSafe bool
	// Trailer appends an integrity trailer comment — a sha256 of the body
	// plus an element-count manifest — that Read verifies. Off by default
	// so existing writers stay byte-identical; guarded paths
	// (VerifyRoundTrip, the backplane/migrate gates, E14) turn it on.
	Trailer bool
	// Hints prepends a (hints ...) record carrying the element counts so the
	// reader can pre-size its tables before the records arrive
	// (the trailer manifest sits at the end, too late for that). Off by
	// default so existing outputs stay byte-identical.
	Hints bool
}

// Write serializes the netlist. With the trailer on, the body is hashed
// as it streams to w (internal/frame), so no copy of the file is held.
func Write(w io.Writer, nl *netlist.Netlist, opts WriteOptions) error {
	ct := countElems(nl)
	if !opts.Trailer {
		return writeBody(w, nl, opts, ct)
	}
	fw := frame.NewWriter(w)
	if err := writeBody(fw, nl, opts, ct); err != nil {
		return err
	}
	_, err := fw.Seal("integrity", fmt.Sprintf("cells=%d ports=%d nets=%d insts=%d conns=%d attrs=%d",
		ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs))
	return err
}

// elemCounts is the element manifest carried by the integrity trailer.
type elemCounts struct {
	cells, ports, nets, insts, conns, attrs int
}

func countElems(nl *netlist.Netlist) elemCounts {
	var ct elemCounts
	ct.cells = len(nl.Cells)
	for _, c := range nl.Cells {
		ct.ports += len(c.Ports)
		ct.nets += len(c.Nets)
		ct.insts += len(c.Instances)
		for _, nt := range c.Nets {
			ct.attrs += len(nt.Attrs)
		}
		for _, inst := range c.Instances {
			ct.conns += len(inst.Conns)
			ct.attrs += len(inst.Attrs)
		}
	}
	return ct
}

func writeBody(w io.Writer, nl *netlist.Netlist, opts WriteOptions, ct elemCounts) error {
	bw := bufio.NewWriter(w)
	ext := newExternalizer(opts, ct.cells+ct.ports+ct.nets+ct.insts)

	fmt.Fprintf(bw, "(edif %s\n", ext.name(nlName(nl)))
	if opts.Hints {
		fmt.Fprintf(bw, "  (hints (cells %d) (ports %d) (nets %d) (insts %d) (conns %d) (attrs %d))\n",
			ct.cells, ct.ports, ct.nets, ct.insts, ct.conns, ct.attrs)
	}
	for _, cn := range nl.CellNames() {
		c := nl.Cells[cn]
		fmt.Fprintf(bw, "  (cell %s\n    (interface", ext.name(cn))
		for _, p := range c.Ports {
			fmt.Fprintf(bw, " (port %s %s)", ext.name(p.Name), p.Dir)
		}
		fmt.Fprintf(bw, ")\n")
		if c.Primitive {
			fmt.Fprintf(bw, "    (primitive)\n")
		}
		if len(c.Nets) > 0 || len(c.Instances) > 0 {
			fmt.Fprintf(bw, "    (contents\n")
			for _, nn := range c.NetNames() {
				nt := c.Nets[nn]
				fmt.Fprintf(bw, "      (net %s", ext.name(nn))
				if nt.Global {
					fmt.Fprintf(bw, " (global)")
				}
				writeAttrs(bw, nt.Attrs)
				fmt.Fprintf(bw, ")\n")
			}
			for _, in := range c.InstanceNames() {
				inst := c.Instances[in]
				fmt.Fprintf(bw, "      (instance %s (of %s) (joined", ext.name(in), ext.name(inst.Master))
				ports := make([]string, 0, len(inst.Conns))
				for p := range inst.Conns {
					ports = append(ports, p)
				}
				sort.Strings(ports)
				for _, p := range ports {
					fmt.Fprintf(bw, " (%s %s)", ext.name(p), ext.name(inst.Conns[p]))
				}
				fmt.Fprintf(bw, ")")
				writeAttrs(bw, inst.Attrs)
				fmt.Fprintf(bw, ")\n")
			}
			fmt.Fprintf(bw, "    )\n")
		}
		fmt.Fprintf(bw, "  )\n")
	}
	// Rename table: alias -> original, sorted for stable output.
	aliases := make([]string, 0, len(ext.renames))
	for a := range ext.renames {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		fmt.Fprintf(bw, "  (rename %s %s)\n", a, strconv.Quote(ext.renames[a]))
	}
	if nl.Top != "" {
		fmt.Fprintf(bw, "  (design %s)\n", ext.name(nl.Top))
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}

func nlName(nl *netlist.Netlist) string {
	if nl.Top != "" {
		return nl.Top
	}
	return "library"
}

func writeAttrs(w io.Writer, attrs map[string]string) {
	if len(attrs) == 0 {
		return
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " (property %s %s)", k, strconv.Quote(attrs[k]))
	}
}

// externalizer maps internal names to names the consumer accepts,
// recording renames.
type externalizer struct {
	opts    WriteOptions
	out     map[string]string // original -> alias
	used    map[string]bool
	renames map[string]string // alias -> original
}

func newExternalizer(opts WriteOptions, names int) *externalizer {
	return &externalizer{
		opts:    opts,
		out:     make(map[string]string, names),
		used:    make(map[string]bool, names),
		renames: make(map[string]string),
	}
}

// name externalizes one identifier.
func (e *externalizer) name(n string) string {
	if a, ok := e.out[n]; ok {
		return a
	}
	alias := n
	if e.opts.VHDLSafe {
		m, err := naming.RenameForVHDL([]string{alias})
		if err == nil {
			if nw, ok := m[alias]; ok {
				alias = nw
			}
		}
	}
	if e.opts.NameLimit > 0 {
		alias = naming.Truncate(alias, e.opts.NameLimit)
	}
	if alias == "" || needsQuoting(alias) {
		alias = "id" + alias
	}
	// Uniquify within the file.
	base := alias
	for i := 2; e.used[alias]; i++ {
		suffix := fmt.Sprintf("_%d", i)
		if e.opts.NameLimit > 0 && len(base)+len(suffix) > e.opts.NameLimit {
			alias = naming.Truncate(base, e.opts.NameLimit-len(suffix)) + suffix
		} else {
			alias = base + suffix
		}
	}
	e.used[alias] = true
	e.out[n] = alias
	if alias != n {
		e.renames[alias] = n
	}
	return alias
}

// needsQuoting reports whether a name cannot be an s-expression symbol.
func needsQuoting(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '(' || c == ')' || c == '"' || c == ';' || c == '\'' {
			return true
		}
	}
	return s[0] >= '0' && s[0] <= '9'
}

// ReadOptions selects the reader's failure policy.
type ReadOptions struct {
	// Mode: diag.Strict (default) aborts on the first error-severity
	// diagnostic; diag.Lenient quarantines the malformed record and keeps
	// parsing, returning a partial netlist plus the full damage report.
	Mode diag.Mode
	// Source names the input in diagnostics ("" = "<input>").
	Source string
	// RequireTrailer makes a missing integrity trailer an error. Guarded
	// paths set it: corruption that deletes the trailer line must be
	// detected, not silently accepted.
	RequireTrailer bool
}

// Read parses an interchange file, restoring renamed identifiers. It is the
// strict-mode entry point: the first malformed record aborts.
func Read(r io.Reader) (*netlist.Netlist, error) {
	nl, _, err := ReadStream(r, ReadOptions{})
	return nl, err
}

// ReadBytes is ReadStream over an in-memory input.
func ReadBytes(data []byte, opts ReadOptions) (*netlist.Netlist, []diag.Diagnostic, error) {
	return ReadStream(bytes.NewReader(data), opts)
}

// exReader holds what the record handlers share: the diagnostic
// collector, and the walker that resolves their positions.
type exReader struct {
	col *diag.Collector
	w   *al.Walker
}

// reconcile enforces referential integrity on the parsed netlist: an
// instance of an undefined cell, or a connection to a port or net that does
// not exist (whether the file was written that way or a lenient-mode
// quarantine orphaned the reference). In strict mode the first dangling
// reference aborts the read; in lenient mode the orphan is cascade-dropped
// with a warning, so the partial design handed back still passes Validate —
// no data is lost without a record either way. A netlist with nothing
// dangling costs one unsorted pass; only a faulty one is walked again in
// sorted order.
func (rd *exReader) reconcile(nl *netlist.Netlist) error {
	report := func(format string, args ...any) error {
		if rd.col.Mode == diag.Lenient {
			rd.col.Warnf("quarantine", diag.NoPos, format, args...)
			return nil
		}
		return rd.col.Errorf("dangling", diag.NoPos, format, args...)
	}
	if nl.Top != "" {
		if _, ok := nl.Cell(nl.Top); !ok {
			if err := report("design references undefined cell %q", nl.Top); err != nil {
				return err
			}
			nl.Top = ""
		}
	}
	if !dangles(nl) {
		return nil
	}
	// Something dangles: walk in sorted order, so the diagnostics and the
	// deletions come out the same on every read.
	for _, cn := range nl.CellNames() {
		c, _ := nl.Cell(cn)
		for _, in := range c.InstanceNames() {
			inst := c.Instances[in]
			master, ok := nl.Cell(inst.Master)
			if !ok {
				if err := report("cell %q instance %q: master %q undefined", cn, in, inst.Master); err != nil {
					return err
				}
				delete(c.Instances, in)
				continue
			}
			ports := make([]string, 0, len(inst.Conns))
			for p := range inst.Conns {
				ports = append(ports, p)
			}
			sort.Strings(ports)
			for _, port := range ports {
				net := inst.Conns[port]
				if _, ok := master.Port(port); !ok {
					if err := report("cell %q instance %q connection %s=%s: master %q has no port %q",
						cn, in, port, net, inst.Master, port); err != nil {
						return err
					}
					delete(inst.Conns, port)
					continue
				}
				if _, ok := c.Nets[net]; !ok {
					if err := report("cell %q instance %q connection %s=%s: net undefined", cn, in, port, net); err != nil {
						return err
					}
					delete(inst.Conns, port)
				}
			}
		}
	}
	return nil
}

// dangles reports whether any instance names an undefined master, a port
// its master lacks or a net its cell lacks. It neither sorts nor
// allocates, so a clean netlist costs reconcile one pass over its maps.
func dangles(nl *netlist.Netlist) bool {
	for _, c := range nl.Cells {
		for _, inst := range c.Instances {
			master, ok := nl.Cells[inst.Master]
			if !ok {
				return true
			}
			for port, net := range inst.Conns {
				if _, ok := master.Port(port); !ok {
					return true
				}
				if _, ok := c.Nets[net]; !ok {
					return true
				}
			}
		}
	}
	return false
}

// manifestCounts decodes the integrity trailer's k=v manifest, skipping
// other fields and unknown keys. A non-empty message names the failure.
func manifestCounts(fields []string) (*elemCounts, string) {
	var ct elemCounts
	seen := 0
	for _, f := range fields {
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

// hintCounts decodes a (hints (cells N) ...) record. Hints are advisory
// pre-sizing data, so unknown or malformed entries are ignored, never
// diagnosed.
func hintCounts(l al.List) elemCounts {
	var ct elemCounts
	for _, sub := range l[1:] {
		sl, ok := sub.(al.List)
		if !ok || len(sl) != 2 {
			continue
		}
		key, ok := sl[0].(al.Symbol)
		if !ok {
			continue
		}
		num, ok := sl[1].(al.Num)
		n := int(num)
		if !ok || al.Num(n) != num || n < 0 {
			continue
		}
		switch key {
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
		}
	}
	return ct
}

// integrityErr reports an integrity failure. In strict mode it always
// aborts with ErrIntegrity in the chain; in lenient mode it is recorded and
// nil is returned so the body still gets parsed (the caller sees the
// diagnostic).
func (rd *exReader) integrityErr(pos diag.Pos, format string, args ...any) error {
	if err := rd.col.Errorf("integrity", pos, format, args...); err != nil {
		return &diag.DiagError{Diag: rd.col.Diags[len(rd.col.Diags)-1], Sentinel: ErrIntegrity}
	}
	return nil
}

// readCellItem handles one materialized body item of a (cell ...) form;
// (contents ...) never arrives here, because the reader walks it record
// by record. A non-nil return is an abort.
func (rd *exReader) readCellItem(c *netlist.Cell, item al.Value, it *al.PosTree) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.w.Pos(it), "bad cell item %s", item.Repr())
	}
	head, _ := il[0].(al.Symbol)
	switch head {
	case "interface":
		return rd.readInterface(c, il, it)
	case "primitive":
		c.Primitive = true
	default:
		return rd.col.Errorf("record", rd.w.Pos(it), "unknown cell item %q", head)
	}
	return nil
}

func (rd *exReader) readInterface(c *netlist.Cell, il al.List, it *al.PosTree) error {
	for j, pi := range il[1:] {
		pt := it.Kid(j + 1)
		pl, ok := pi.(al.List)
		if !ok || len(pl) != 3 || !isSym(pl[0], "port") {
			if err := rd.col.Errorf("record", rd.w.Pos(pt), "bad port %s", pi.Repr()); err != nil {
				return err
			}
			continue
		}
		pname, err1 := symStr(pl[1])
		dname, err2 := symStr(pl[2])
		if err1 != nil || err2 != nil {
			if err := rd.col.Errorf("record", rd.w.Pos(pt), "port fields"); err != nil {
				return err
			}
			continue
		}
		dir, err := netlist.ParsePortDir(dname)
		if err != nil {
			if err := rd.col.Errorf("record", rd.w.Pos(pt.Kid(2)), "%v", err); err != nil {
				return err
			}
			continue
		}
		if err := c.AddPort(pname, dir); err != nil {
			if err := rd.col.Errorf("record", rd.w.Pos(pt), "%v", err); err != nil {
				return err
			}
		}
	}
	return nil
}

// readContentsItem handles one record of a (contents ...) form — the
// granularity at which the reader parses, recovers and frees memory. A
// non-nil return is an abort.
func (rd *exReader) readContentsItem(c *netlist.Cell, item al.Value, it *al.PosTree) error {
	il, ok := item.(al.List)
	if !ok || len(il) == 0 {
		return rd.col.Errorf("record", rd.w.Pos(it), "bad contents item")
	}
	head, _ := il[0].(al.Symbol)
	switch head {
	case "net":
		if len(il) < 2 {
			return rd.col.Errorf("record", rd.w.Pos(it), "net needs a name")
		}
		name, err := symStr(il[1])
		if err != nil {
			return rd.col.Errorf("record", rd.w.Pos(it.Kid(1)), "net name: %v", err)
		}
		nt := c.EnsureNet(name)
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
		return rd.readInstance(c, il, it)
	default:
		return rd.col.Errorf("record", rd.w.Pos(it), "unknown contents item %q", head)
	}
	return nil
}

func (rd *exReader) readInstance(c *netlist.Cell, il al.List, it *al.PosTree) error {
	if len(il) < 2 {
		return rd.col.Errorf("record", rd.w.Pos(it), "instance needs a name")
	}
	name, err := symStr(il[1])
	if err != nil {
		return rd.col.Errorf("record", rd.w.Pos(it.Kid(1)), "instance name: %v", err)
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
				return rd.col.Errorf("record", rd.w.Pos(st.Kid(1)), "master: %v", err)
			}
			inst, err = c.AddInstance(name, m)
			if err != nil {
				return rd.col.Errorf("record", rd.w.Pos(st), "%v", err)
			}
		case isSym(sl[0], "joined"):
			if inst == nil {
				return rd.col.Errorf("record", rd.w.Pos(st), "joined before of")
			}
			for k, ji := range sl[1:] {
				jt := st.Kid(k + 1)
				jl, ok := ji.(al.List)
				if !ok || len(jl) != 2 {
					if err := rd.col.Errorf("record", rd.w.Pos(jt), "bad joined pair %s", ji.Repr()); err != nil {
						return err
					}
					continue
				}
				port, err1 := symStr(jl[0])
				net, err2 := symStr(jl[1])
				if err1 != nil || err2 != nil {
					if err := rd.col.Errorf("record", rd.w.Pos(jt), "joined fields"); err != nil {
						return err
					}
					continue
				}
				if err := c.Connect(name, port, net); err != nil {
					if err := rd.col.Errorf("record", rd.w.Pos(jt), "%v", err); err != nil {
						return err
					}
				}
			}
		case isSym(sl[0], "property") && len(sl) == 3:
			if inst == nil {
				return rd.col.Errorf("record", rd.w.Pos(st), "property before of")
			}
			k, _ := symStr(sl[1])
			v, _ := symStr(sl[2])
			inst.Attrs[k] = v
		}
	}
	if inst == nil {
		return rd.col.Errorf("record", rd.w.Pos(it), "instance %q missing (of ...)", name)
	}
	return nil
}

// VerifyRoundTrip writes nl (with the integrity trailer), reads it back in
// strict guarded mode, and semantically compares the result against the
// original — attributes included. A nil return certifies the design
// survives the interchange trip losslessly; any loss is named, not silent.
func VerifyRoundTrip(nl *netlist.Netlist) error {
	var buf bytes.Buffer
	if err := Write(&buf, nl, WriteOptions{Trailer: true}); err != nil {
		return fmt.Errorf("roundtrip write: %w", err)
	}
	got, _, err := ReadBytes(buf.Bytes(), ReadOptions{Source: "roundtrip", RequireTrailer: true})
	if err != nil {
		return fmt.Errorf("roundtrip read: %w", err)
	}
	diffs := netlist.Compare(nl, got, netlist.CompareOptions{CompareAttrs: true})
	if len(diffs) > 0 {
		return fmt.Errorf("%w: round-trip mismatch: %d diffs, first: %s", ErrIntegrity, len(diffs), diffs[0])
	}
	return nil
}

// Fingerprint is the hex SHA-256 of the netlist's canonical exchange
// serialization (no integrity trailer) — a stable content address for
// memoization keys (internal/memo): two netlists hash equal exactly when
// their interchange form is byte-identical.
func Fingerprint(nl *netlist.Netlist) (string, error) {
	h := sha256.New()
	if err := Write(h, nl, WriteOptions{}); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func isSym(v al.Value, s string) bool {
	sym, ok := v.(al.Symbol)
	return ok && string(sym) == s
}

func symStr(v al.Value) (string, error) {
	switch x := v.(type) {
	case al.Symbol:
		return string(x), nil
	case al.Str:
		return string(x), nil
	default:
		return "", fmt.Errorf("expected name, got %s", v.Repr())
	}
}

// Package migrate implements the Section 2 schematic migration: moving a
// design drawn in one capture tool's dialect into another's, replacing
// source-library components with target-library components in place
// (Figure 1), while handling every issue the paper lists — scaling, symbol
// replacement maps with pin maps and offsets/rotations, standard and
// non-standard property mapping (the latter via a/L callbacks), bus syntax
// translation, hierarchy and off-page connector insertion, globals, and
// cosmetic text fixes — followed by independent verification of the result.
package migrate

import (
	"errors"
	"fmt"
	"sort"

	"cadinterop/internal/al"
	"cadinterop/internal/exchange"
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/schematic"
)

// Errors.
var (
	// ErrUnmapped reports a source symbol with no replacement map entry.
	ErrUnmapped = errors.New("migrate: unmapped symbol")
	// ErrCallback reports an a/L callback failure.
	ErrCallback = errors.New("migrate: callback failed")
	// ErrVerify reports that post-migration verification found diffs.
	ErrVerify = errors.New("migrate: verification failed")
)

// SymbolMap replaces one source-library component with one target-library
// component: "Library, name, and view mappings, along with origin offsets
// and rotation codes, were defined for each Viewlogic component to be
// replaced by a Cadence component. For situations where pin naming
// conventions differed, a pin name map was also created."
type SymbolMap struct {
	From   schematic.SymbolKey
	To     schematic.SymbolKey
	Offset geom.Point       // origin offset applied to the placement
	Rotate geom.Orientation // extra rotation code
	// PinMap maps source pin names to target pin names; identity if empty.
	PinMap map[string]string
}

// PropAction is one kind of standard-property rewrite.
type PropAction uint8

// Property mapping actions — "the addition, deletion, renaming or changing
// of property names, values, and text labels".
const (
	PropRename PropAction = iota
	PropDelete
	PropSetValue
	PropAdd
)

// PropRule is one standard property mapping rule.
type PropRule struct {
	Action PropAction
	Name   string // property to match (Rename/Delete/SetValue) or to add
	// NewName for PropRename; NewValue for PropSetValue/PropAdd.
	NewName  string
	NewValue string
}

// Callback runs an a/L script against matching properties — the paper's
// escape hatch for "special property mapping requirements" such as
// reformatting single analog properties into multiple properties.
type Callback struct {
	// PropName selects which property triggers the callback.
	PropName string
	// OnSymbol restricts the callback to instances of one source symbol;
	// zero value applies to all.
	OnSymbol schematic.SymbolKey
	// Script is a/L source. It must define (transform name value) returning
	// a list of (name value) pairs that replace the matched property.
	Script string
}

// Options configures a migration.
type Options struct {
	From, To schematic.Dialect
	// TargetLibs supplies the target component libraries (the "existing
	// library components from the Cadence system" the customer had already
	// qualified). They are copied into the output design.
	TargetLibs []*schematic.Library
	Symbols    []SymbolMap
	PropRules  []PropRule
	Callbacks  []Callback
	// ConnectorSyms names the target dialect's connector symbols per kind.
	ConnectorSyms map[schematic.ConnKind]schematic.SymbolKey
	// GlobalMap renames global nets between the systems (VDD -> vdd!).
	GlobalMap map[string]string
	// KeepUnmapped keeps instances whose symbol has no map entry (flagged
	// in the report) instead of failing.
	KeepUnmapped bool
	// SkipVerify disables the final independent verification pass.
	SkipVerify bool
	// VerifyRoundTrip additionally round-trips the migrated design's
	// extracted netlist through the exchange format under checksum and
	// manifest guards (write → guarded read → semantic compare), failing
	// the migration if the interchange path would corrupt it.
	VerifyRoundTrip bool

	// Ablation switches for the E2 experiment: each disables one
	// translation rule so its contribution to correctness is measurable.
	DisableScaling    bool
	DisableBusXlate   bool
	DisableConnectors bool
	DisableGlobals    bool
	DisableCosmetics  bool
	DisableProps      bool
}

// Report accumulates migration statistics, mirroring the figures a CAD
// manager would demand before signing off the translated database.
type Report struct {
	ReplacedInstances int
	UnmappedInstances []string
	RippedSegments    int
	AddedSegments     int
	ReroutedPins      int
	TotalSegments     int
	InexactPoints     int
	BusRenames        int
	GlobalRenames     int
	PropChanges       int
	CallbackRuns      int
	CallbackProps     int
	ConnectorsAdded   int
	TextAdjusted      int
	// NetRenames records every net-name rewrite for verification.
	NetRenames map[string]string
	// Verification holds the independent compare result (nil = clean).
	Verification []netlist.Diff
	// StructuralMatch is set when the name-based compare found diffs: it
	// reports whether the rename-insensitive structural fingerprints of
	// the top cells still match — separating pure naming fallout from real
	// connectivity damage.
	StructuralMatch *bool
	// GeometricSimilarity is the fraction of wire segments unchanged by
	// rip-up/reroute — the paper's "appeared graphically very similar".
	GeometricSimilarity float64
	// RoundTripChecked is set when the optional interchange round-trip
	// gate ran (and passed — a failing gate fails the migration).
	RoundTripChecked bool
}

// Migrate translates src into the target dialect. src is not modified.
func Migrate(src *schematic.Design, opts Options) (*schematic.Design, *Report, error) {
	rep := &Report{NetRenames: make(map[string]string)}
	out := src.Clone()
	out.Grid = opts.To.Grid

	// Target libraries replace source libraries.
	out.Libraries = make(map[string]*schematic.Library)
	for _, lib := range opts.TargetLibs {
		dst := out.EnsureLibrary(lib.Name)
		for _, s := range lib.Symbols {
			cp := *s
			cp.Pins = append([]schematic.SymbolPin(nil), s.Pins...)
			if err := dst.AddSymbol(&cp); err != nil {
				return nil, nil, err
			}
		}
	}

	symMaps := make(map[schematic.SymbolKey]SymbolMap, len(opts.Symbols))
	for _, m := range opts.Symbols {
		symMaps[m.From] = m
	}

	// Stage 1: scaling.
	if !opts.DisableScaling {
		scaleDesign(out, opts.From, opts.To, rep)
	}

	// Stage 2: component replacement with rip-up/reroute (Figure 1).
	if err := replaceComponents(src, out, symMaps, opts, rep); err != nil {
		return nil, nil, err
	}

	// Stage 3: standard property mapping.
	if !opts.DisableProps {
		applyPropRules(out, opts.PropRules, rep)
	}

	// Stage 4: non-standard property mapping via a/L callbacks.
	if err := runCallbacks(src, out, opts, rep); err != nil {
		return nil, nil, err
	}

	// Stage 5: bus syntax translation.
	if !opts.DisableBusXlate {
		if err := translateBusNames(out, opts.From, opts.To, rep); err != nil {
			return nil, nil, err
		}
	}

	// Stage 6: globals.
	if !opts.DisableGlobals && len(opts.GlobalMap) > 0 {
		renameGlobals(out, opts.GlobalMap, rep)
	}

	// Stage 7: hierarchy and off-page connectors.
	if !opts.DisableConnectors {
		if err := insertConnectors(out, opts, rep); err != nil {
			return nil, nil, err
		}
	}

	// Stage 8: cosmetics.
	if !opts.DisableCosmetics {
		fixCosmetics(out, opts.From, opts.To, rep)
	}

	// Geometric similarity over all wire segments.
	rep.TotalSegments = out.Stats().Segments
	if rep.TotalSegments > 0 {
		changed := rep.RippedSegments + rep.AddedSegments
		if changed > rep.TotalSegments {
			changed = rep.TotalSegments
		}
		rep.GeometricSimilarity = 1 - float64(changed)/float64(rep.TotalSegments)
	} else {
		rep.GeometricSimilarity = 1
	}

	// Stage 9: independent verification.
	if !opts.SkipVerify {
		diffs, err := Verify(src, out, opts, rep)
		if err != nil {
			return nil, nil, err
		}
		rep.Verification = diffs
		if len(diffs) > 0 && src.Top != "" && out.Top != "" {
			// Second opinion: rename-insensitive structural compare of the
			// tops. A match means only naming went wrong; a mismatch means
			// connectivity itself was damaged.
			golden, gerr := schematic.Extract(src, opts.From.ExtractOptions())
			cand, cerr := schematic.Extract(out, opts.To.ExtractOptions())
			if gerr == nil && cerr == nil {
				if eq, serr := netlist.StructurallyEquivalent(golden, src.Top, cand, out.Top); serr == nil {
					rep.StructuralMatch = &eq
				}
			}
		}
	}

	// Stage 10: optional interchange round-trip gate. The migrated design
	// is only as good as its ability to survive the next tool handoff, so
	// extract its netlist and push it through the guarded exchange path.
	if opts.VerifyRoundTrip {
		cand, err := schematic.Extract(out, opts.To.ExtractOptions())
		if err != nil {
			return nil, nil, err
		}
		if err := exchange.VerifyRoundTrip(cand); err != nil {
			return nil, nil, fmt.Errorf("%w: interchange round-trip: %v", ErrVerify, err)
		}
		rep.RoundTripChecked = true
	}
	return out, rep, nil
}

// scaleDesign rescales all coordinates so the source pin pitch lands on the
// target pin pitch ("the symbols and schematics were scaled down in size to
// adjust to the Composer grid spacing").
func scaleDesign(d *schematic.Design, from, to schematic.Dialect, rep *Report) {
	num, den := to.PinSpacing, from.PinSpacing
	if num == den || num == 0 || den == 0 {
		return
	}
	sp := func(p geom.Point) geom.Point {
		x, exX := scaleCoord(p.X, num, den)
		y, exY := scaleCoord(p.Y, num, den)
		if !exX || !exY {
			rep.InexactPoints++
		}
		return geom.Pt(x, y)
	}
	sr := func(r geom.Rect) geom.Rect {
		a, b := sp(r.Min), sp(r.Max)
		return geom.R(a.X, a.Y, b.X, b.Y)
	}
	for _, c := range d.Cells {
		for _, pg := range c.Pages {
			pg.Size = sr(pg.Size)
			for _, inst := range pg.Instances {
				inst.Placement.Offset = sp(inst.Placement.Offset)
			}
			for _, w := range pg.Wires {
				for i := range w.Points {
					w.Points[i] = sp(w.Points[i])
				}
			}
			for _, l := range pg.Labels {
				l.At = sp(l.At)
			}
			for _, cn := range pg.Conns {
				cn.At = sp(cn.At)
			}
			for _, tx := range pg.Texts {
				tx.At = sp(tx.At)
			}
		}
	}
}

func scaleCoord(v, num, den int) (int, bool) {
	p := v * num
	q := p / den
	r := p % den
	if r == 0 {
		return q, true
	}
	if r < 0 {
		r = -r
	}
	if 2*r >= den {
		if p < 0 {
			q--
		} else {
			q++
		}
	}
	return q, false
}

// replaceComponents performs the Figure 1 operation on every instance.
func replaceComponents(src, out *schematic.Design, symMaps map[schematic.SymbolKey]SymbolMap, opts Options, rep *Report) error {
	for _, cn := range out.CellNames() {
		c := out.Cells[cn]
		for _, pg := range c.Pages {
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				m, ok := symMaps[inst.Sym]
				if !ok {
					// Hierarchical references (symbol names matching design
					// cells) pass through with their key intact only if the
					// target libs carry them; otherwise they are unmapped.
					if _, found := out.Symbol(inst.Sym); found {
						continue
					}
					if opts.KeepUnmapped {
						rep.UnmappedInstances = append(rep.UnmappedInstances, cn+"/"+in)
						continue
					}
					return fmt.Errorf("%w: %s (instance %s/%s)", ErrUnmapped, inst.Sym, cn, in)
				}
				oldSym, ok := src.Symbol(m.From)
				if !ok {
					return fmt.Errorf("%w: source symbol %s missing", ErrUnmapped, m.From)
				}
				newSym, ok := out.Symbol(m.To)
				if !ok {
					return fmt.Errorf("%w: target symbol %s not in target libraries", ErrUnmapped, m.To)
				}
				// Old pin positions in the *scaled* frame: scale the source
				// symbol's local pins with the same rule as the sheet.
				oldPlacement := inst.Placement
				newPlacement := geom.Transform{
					Orient: oldPlacement.Orient.Compose(m.Rotate),
					Offset: oldPlacement.Offset.Add(m.Offset),
				}
				num, den := opts.To.PinSpacing, opts.From.PinSpacing
				if opts.DisableScaling {
					num, den = 1, 1
				}
				for _, op := range oldSym.Pins {
					local := op.Pos
					if num != den {
						lx, _ := scaleCoord(local.X, num, den)
						ly, _ := scaleCoord(local.Y, num, den)
						local = geom.Pt(lx, ly)
					}
					oldAbs := oldPlacement.Apply(local)
					npName := op.Name
					if m.PinMap != nil {
						if mapped, ok := m.PinMap[op.Name]; ok {
							npName = mapped
						}
					}
					np, ok := newSym.Pin(npName)
					if !ok {
						return fmt.Errorf("%w: target symbol %s has no pin %q (for source pin %q)",
							ErrUnmapped, m.To, npName, op.Name)
					}
					newAbs := newPlacement.Apply(np.Pos)
					if newAbs != oldAbs {
						ripped, added := reroute(pg, oldAbs, newAbs)
						rep.RippedSegments += ripped
						rep.AddedSegments += added
						if ripped+added > 0 {
							rep.ReroutedPins++
						}
					}
				}
				inst.Sym = m.To
				inst.Placement = newPlacement
				rep.ReplacedInstances++
			}
		}
	}
	return nil
}

// reroute moves every wire endpoint sitting at old to new, inserting an
// L-shaped jog so the wire stays Manhattan. It returns how many existing
// segments were ripped (modified) and how many new segments were added —
// "the number of ripped up net segments was minimized".
func reroute(pg *schematic.Page, old, new geom.Point) (ripped, added int) {
	for _, w := range pg.Wires {
		n := len(w.Points)
		if n == 0 {
			continue
		}
		if w.Points[0] == old {
			w.Points = prependJog(w.Points, old, new)
			ripped++
			added += jogCount(old, new) - 1
		} else if n > 1 && w.Points[n-1] == old {
			w.Points = appendJog(w.Points, old, new)
			ripped++
			added += jogCount(old, new) - 1
		}
	}
	return ripped, added
}

// jogCount is how many segments the old->new connection needs (1 when
// axis-aligned, 2 otherwise).
func jogCount(a, b geom.Point) int {
	if a.X == b.X || a.Y == b.Y {
		return 1
	}
	return 2
}

func prependJog(pts []geom.Point, old, new geom.Point) []geom.Point {
	if old.X == new.X || old.Y == new.Y {
		out := append([]geom.Point{new}, pts...)
		return out
	}
	corner := geom.Pt(new.X, old.Y)
	return append([]geom.Point{new, corner}, pts...)
}

func appendJog(pts []geom.Point, old, new geom.Point) []geom.Point {
	if old.X == new.X || old.Y == new.Y {
		return append(pts, new)
	}
	corner := geom.Pt(new.X, old.Y)
	return append(pts, corner, new)
}

// applyPropRules rewrites instance properties per the standard mapping.
func applyPropRules(d *schematic.Design, rules []PropRule, rep *Report) {
	for _, c := range d.Cells {
		for _, pg := range c.Pages {
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				for _, r := range rules {
					switch r.Action {
					case PropRename:
						if p, ok := schematic.FindProp(inst.Props, r.Name); ok {
							inst.Props = schematic.DelProp(inst.Props, r.Name)
							p.Name = r.NewName
							inst.Props = schematic.SetProp(inst.Props, p)
							rep.PropChanges++
						}
					case PropDelete:
						if _, ok := schematic.FindProp(inst.Props, r.Name); ok {
							inst.Props = schematic.DelProp(inst.Props, r.Name)
							rep.PropChanges++
						}
					case PropSetValue:
						if p, ok := schematic.FindProp(inst.Props, r.Name); ok {
							p.Value = r.NewValue
							inst.Props = schematic.SetProp(inst.Props, p)
							rep.PropChanges++
						}
					case PropAdd:
						if _, ok := schematic.FindProp(inst.Props, r.Name); !ok {
							inst.Props = schematic.SetProp(inst.Props, schematic.Property{
								Name: r.Name, Value: r.NewValue})
							rep.PropChanges++
						}
					}
				}
			}
		}
	}
}

// runCallbacks executes a/L property callbacks. Each script gets foreign
// functions binding it to the design hierarchy: (inst-name), (cell-name),
// (get-prop name) and (design-name).
func runCallbacks(src, out *schematic.Design, opts Options, rep *Report) error {
	if len(opts.Callbacks) == 0 {
		return nil
	}
	// Map output instances back to their source symbol for OnSymbol
	// matching (stage 2 already rewrote inst.Sym).
	srcSym := make(map[string]schematic.SymbolKey)
	for _, cn := range src.CellNames() {
		c := src.Cells[cn]
		for _, pg := range c.Pages {
			for in, inst := range pg.Instances {
				srcSym[cn+"/"+in] = inst.Sym
			}
		}
	}
	for _, cb := range opts.Callbacks {
		env := al.NewEnv()
		if _, err := al.Run(cb.Script, env); err != nil {
			return fmt.Errorf("%w: loading script: %v", ErrCallback, err)
		}
		fn, err := env.Lookup(al.Symbol("transform"))
		if err != nil {
			return fmt.Errorf("%w: script defines no (transform name value)", ErrCallback)
		}
		for _, cn := range out.CellNames() {
			c := out.Cells[cn]
			for _, pg := range c.Pages {
				for _, in := range pg.InstanceNames() {
					inst := pg.Instances[in]
					if (cb.OnSymbol != schematic.SymbolKey{}) && srcSym[cn+"/"+in] != cb.OnSymbol {
						continue
					}
					p, ok := schematic.FindProp(inst.Props, cb.PropName)
					if !ok {
						continue
					}
					// Bind hierarchy accessors for this instance.
					bindHierarchy(env, out, cn, inst)
					res, err := al.Apply(fn, []al.Value{al.Str(p.Name), al.Str(p.Value)})
					if err != nil {
						return fmt.Errorf("%w: %s on %s/%s: %v", ErrCallback, cb.PropName, cn, in, err)
					}
					pairs, ok := res.(al.List)
					if !ok {
						return fmt.Errorf("%w: transform must return a list, got %s", ErrCallback, res.Repr())
					}
					inst.Props = schematic.DelProp(inst.Props, cb.PropName)
					for _, pair := range pairs {
						pl, ok := pair.(al.List)
						if !ok || len(pl) != 2 {
							return fmt.Errorf("%w: transform result item %s is not (name value)", ErrCallback, pair.Repr())
						}
						name, err1 := alString(pl[0])
						val, err2 := alString(pl[1])
						if err1 != nil || err2 != nil {
							return fmt.Errorf("%w: transform result item %s", ErrCallback, pair.Repr())
						}
						inst.Props = schematic.SetProp(inst.Props, schematic.Property{
							Name: name, Value: val, Visible: p.Visible, At: p.At, Size: p.Size})
						rep.CallbackProps++
					}
					rep.CallbackRuns++
				}
			}
		}
	}
	return nil
}

func bindHierarchy(env *al.Env, d *schematic.Design, cell string, inst *schematic.Instance) {
	env.RegisterFunc("inst-name", func([]al.Value) (al.Value, error) {
		return al.Str(inst.Name), nil
	})
	env.RegisterFunc("cell-name", func([]al.Value) (al.Value, error) {
		return al.Str(cell), nil
	})
	env.RegisterFunc("design-name", func([]al.Value) (al.Value, error) {
		return al.Str(d.Name), nil
	})
	env.RegisterFunc("get-prop", func(args []al.Value) (al.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("get-prop wants 1 arg")
		}
		name, err := alString(args[0])
		if err != nil {
			return nil, err
		}
		if p, ok := schematic.FindProp(inst.Props, name); ok {
			return al.Str(p.Value), nil
		}
		return al.Bool(false), nil
	})
}

func alString(v al.Value) (string, error) {
	switch x := v.(type) {
	case al.Str:
		return string(x), nil
	case al.Symbol:
		return string(x), nil
	case al.Num:
		return x.Repr(), nil
	default:
		return "", fmt.Errorf("expected string, got %s", v.Repr())
	}
}

// translateBusNames rewrites labels and connector names from the source bus
// syntax to the target's, recording every rename.
func translateBusNames(d *schematic.Design, from, to schematic.Dialect, rep *Report) error {
	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		known := schematic.CollectBusBases(c)
		rewrite := func(name string) (string, error) {
			out, changed, err := schematic.TranslateBusName(name, from.Bus, to.Bus, known)
			if err != nil {
				return "", err
			}
			if changed {
				rep.BusRenames++
				rep.NetRenames[name] = out
			}
			return out, nil
		}
		for _, pg := range c.Pages {
			for _, l := range pg.Labels {
				nw, err := rewrite(l.Text)
				if err != nil {
					return fmt.Errorf("cell %s: label %q: %w", cn, l.Text, err)
				}
				l.Text = nw
			}
			for _, conn := range pg.Conns {
				nw, err := rewrite(conn.Name)
				if err != nil {
					return fmt.Errorf("cell %s: connector %q: %w", cn, conn.Name, err)
				}
				conn.Name = nw
			}
		}
	}
	return nil
}

// renameGlobals applies the global net name map to labels, connectors and
// the design's global list.
func renameGlobals(d *schematic.Design, gm map[string]string, rep *Report) {
	for i, g := range d.Globals {
		if nw, ok := gm[g]; ok {
			d.Globals[i] = nw
			rep.NetRenames[g] = nw
			rep.GlobalRenames++
		}
	}
	for _, c := range d.Cells {
		for _, pg := range c.Pages {
			for _, l := range pg.Labels {
				if nw, ok := gm[l.Text]; ok {
					l.Text = nw
				}
			}
			for _, conn := range pg.Conns {
				if nw, ok := gm[conn.Name]; ok {
					conn.Name = nw
				}
			}
		}
	}
}

// insertConnectors adds the hierarchy and off-page connectors the target
// dialect demands: hierarchy connectors for every declared port, and
// off-page connectors wherever a net spans pages. Floating wire ends host
// the connector when available; otherwise a stub is drawn to the sheet edge
// ("to the side of the schematic sheets for these internal connections").
func insertConnectors(d *schematic.Design, opts Options, rep *Report) error {
	to := opts.To
	if !to.RequireHierConnectors && !to.RequireOffPage {
		return nil
	}
	connSym := func(k schematic.ConnKind) schematic.SymbolKey {
		if s, ok := opts.ConnectorSyms[k]; ok {
			return s
		}
		return schematic.SymbolKey{Lib: to.ConnectorLib, Name: k.String(), View: "symbol"}
	}
	for _, cn := range d.CellNames() {
		c := d.Cells[cn]
		// Existing connector coverage.
		hierHave := make(map[string]bool)
		offHave := make(map[string]map[int]bool)
		labelPages := make(map[string]map[int]geom.Point) // name -> page -> a label point
		for pi, pg := range c.Pages {
			for _, conn := range pg.Conns {
				switch conn.Kind {
				case schematic.ConnHierIn, schematic.ConnHierOut, schematic.ConnHierBidir:
					hierHave[conn.Name] = true
				case schematic.ConnOffPage:
					if offHave[conn.Name] == nil {
						offHave[conn.Name] = make(map[int]bool)
					}
					offHave[conn.Name][pi] = true
				}
			}
			for _, l := range pg.Labels {
				if labelPages[l.Text] == nil {
					labelPages[l.Text] = make(map[int]geom.Point)
				}
				if _, ok := labelPages[l.Text][pi]; !ok {
					labelPages[l.Text][pi] = l.At
				}
			}
		}
		floats, err := schematic.FloatingEnds(d, c)
		if err != nil {
			return err
		}
		floatFor := func(page int, net string) (geom.Point, bool) {
			for _, f := range floats {
				if f.Page == page && f.Net == net {
					return f.Point, true
				}
			}
			return geom.Point{}, false
		}

		if to.RequireHierConnectors {
			for _, port := range c.Ports {
				if hierHave[port.Name] || len(c.Pages) == 0 {
					continue
				}
				kind := schematic.ConnHierIn
				switch port.Dir {
				case netlist.Output:
					kind = schematic.ConnHierOut
				case netlist.Inout:
					kind = schematic.ConnHierBidir
				}
				// Prefer a floating end of the port's net on any page.
				placed := false
				for pi, pg := range c.Pages {
					if pt, ok := floatFor(pi, port.Name); ok {
						pg.Conns = append(pg.Conns, &schematic.Connector{
							Kind: kind, Name: port.Name, At: pt, Sym: connSym(kind)})
						rep.ConnectorsAdded++
						placed = true
						break
					}
				}
				if !placed {
					// Fall back to the label location, else the sheet edge.
					pg := c.Pages[0]
					at, ok := geom.Point{}, false
					if pages, have := labelPages[port.Name]; have {
						for pi := range c.Pages {
							if p, h := pages[pi]; h {
								at, ok, pg = p, true, c.Pages[pi]
								break
							}
						}
					}
					if !ok {
						at = geom.Pt(pg.Size.Min.X, pg.Size.Min.Y)
					}
					pg.Conns = append(pg.Conns, &schematic.Connector{
						Kind: kind, Name: port.Name, At: at, Sym: connSym(kind)})
					rep.ConnectorsAdded++
				}
			}
		}

		if to.RequireOffPage {
			names := make([]string, 0, len(labelPages))
			for n := range labelPages {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, name := range names {
				pages := labelPages[name]
				if len(pages) < 2 || d.IsGlobal(name) {
					continue
				}
				pis := make([]int, 0, len(pages))
				for pi := range pages {
					pis = append(pis, pi)
				}
				sort.Ints(pis)
				for _, pi := range pis {
					if offHave[name] != nil && offHave[name][pi] {
						continue
					}
					pg := c.Pages[pi]
					if pt, ok := floatFor(pi, name); ok {
						pg.Conns = append(pg.Conns, &schematic.Connector{
							Kind: schematic.ConnOffPage, Name: name, At: pt,
							Sym: connSym(schematic.ConnOffPage)})
					} else {
						// Stub from the label point to the sheet edge, with
						// the connector at the edge.
						at := pages[pi]
						edge := geom.Pt(pg.Size.Max.X, at.Y)
						if at != edge {
							pg.Wires = append(pg.Wires, &schematic.Wire{Points: []geom.Point{at, edge}})
							rep.AddedSegments++
						}
						pg.Conns = append(pg.Conns, &schematic.Connector{
							Kind: schematic.ConnOffPage, Name: name, At: edge,
							Sym: connSym(schematic.ConnOffPage)})
					}
					rep.ConnectorsAdded++
				}
			}
		}
	}
	return nil
}

// fixCosmetics rescales text sizes and shifts baselines between the two
// tools' font conventions.
func fixCosmetics(d *schematic.Design, from, to schematic.Dialect, rep *Report) {
	for _, c := range d.Cells {
		for _, pg := range c.Pages {
			for _, l := range pg.Labels {
				ns := schematic.ScaleTextSize(l.Size, from.Font, to.Font)
				na := schematic.TranslateTextBaseline(l.At, from.Font, to.Font)
				if ns != l.Size || na != l.At {
					rep.TextAdjusted++
				}
				// Labels anchor at wire points; only the display offset
				// shifts, not the electrical attachment.
				l.Offset = geom.Pt(l.Offset.X, l.Offset.Y+from.Font.BaselineOffset-to.Font.BaselineOffset)
				l.Size = ns
			}
			for _, tx := range pg.Texts {
				ns := schematic.ScaleTextSize(tx.SizePts, from.Font, to.Font)
				na := schematic.TranslateTextBaseline(tx.At, from.Font, to.Font)
				if ns != tx.SizePts || na != tx.At {
					rep.TextAdjusted++
				}
				tx.SizePts = ns
				tx.At = na
				tx.BaselineOffset = to.Font.BaselineOffset
			}
			for _, in := range pg.InstanceNames() {
				inst := pg.Instances[in]
				for i := range inst.Props {
					ns := schematic.ScaleTextSize(inst.Props[i].Size, from.Font, to.Font)
					if ns != inst.Props[i].Size {
						rep.TextAdjusted++
						inst.Props[i].Size = ns
					}
				}
			}
		}
	}
}

// Verify independently extracts connectivity from the source (under the
// source dialect's rules) and the migrated design (under the target's) and
// compares them, applying the recorded renames. This is the step the paper
// insists on: "design data translations must be independently verified".
func Verify(src, migrated *schematic.Design, opts Options, rep *Report) ([]netlist.Diff, error) {
	golden, err := schematic.Extract(src, opts.From.ExtractOptions())
	if err != nil {
		return nil, fmt.Errorf("extract source: %w", err)
	}
	cand, err := schematic.Extract(migrated, opts.To.ExtractOptions())
	if err != nil {
		return nil, fmt.Errorf("extract migrated: %w", err)
	}
	cellRename := netlist.NameMap{}
	pinRename := map[string]netlist.NameMap{}
	for _, m := range opts.Symbols {
		from := m.From.Lib + ":" + m.From.Name
		to := m.To.Lib + ":" + m.To.Name
		cellRename[from] = to
		if len(m.PinMap) > 0 {
			pm := netlist.NameMap{}
			for k, v := range m.PinMap {
				pm[k] = v
			}
			pinRename[from] = pm
		}
	}
	netRename := netlist.NameMap{}
	for k, v := range rep.NetRenames {
		netRename[k] = v
	}
	return netlist.Compare(golden, cand, netlist.CompareOptions{
		NetRename:  netRename,
		CellRename: cellRename,
		PinRename:  pinRename,
	}), nil
}

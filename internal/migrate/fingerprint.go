package migrate

import (
	"fmt"
	"sort"

	"cadinterop/internal/memo"
	"cadinterop/internal/schematic"
)

// Fingerprint canonicalizes every option field into a memo.FP stream, so
// a cached migration (internal/serve) is keyed by all that affects its
// output. Order-sensitive slices — Symbols (last map entry wins in
// symMaps), PropRules, Callbacks — hash in declaration order; everything
// map-shaped hashes in sorted key order.
func (o Options) Fingerprint() string {
	f := memo.NewFP("migrate.Options/v1")
	fpDialect(f, "from", o.From)
	fpDialect(f, "to", o.To)

	libs := append([]*schematic.Library(nil), o.TargetLibs...)
	sort.Slice(libs, func(i, j int) bool { return libs[i].Name < libs[j].Name })
	f.Int("libs", len(libs))
	for _, lib := range libs {
		f.Str("lib", lib.Name)
		keys := make([]string, 0, len(lib.Symbols))
		for k := range lib.Symbols {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fpSymbol(f, lib.Symbols[k])
		}
	}

	f.Int("symbols", len(o.Symbols))
	for _, m := range o.Symbols {
		f.Str("sym.from", m.From.String())
		f.Str("sym.to", m.To.String())
		f.Int("sym.off.x", m.Offset.X)
		f.Int("sym.off.y", m.Offset.Y)
		f.Int("sym.rot", int(m.Rotate))
		f.StrMap("sym.pinmap", m.PinMap)
	}

	f.Int("proprules", len(o.PropRules))
	for _, r := range o.PropRules {
		f.Int("prop.action", int(r.Action))
		f.Str("prop.name", r.Name)
		f.Str("prop.newname", r.NewName)
		f.Str("prop.newvalue", r.NewValue)
	}

	f.Int("callbacks", len(o.Callbacks))
	for _, cb := range o.Callbacks {
		f.Str("cb.prop", cb.PropName)
		f.Str("cb.onsymbol", cb.OnSymbol.String())
		f.Str("cb.script", cb.Script)
	}

	kinds := make([]int, 0, len(o.ConnectorSyms))
	for k := range o.ConnectorSyms {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	f.Int("connectors", len(kinds))
	for _, k := range kinds {
		f.Int("conn.kind", k)
		f.Str("conn.sym", o.ConnectorSyms[schematic.ConnKind(k)].String())
	}

	f.StrMap("globalmap", o.GlobalMap)
	f.Bool("keepunmapped", o.KeepUnmapped)
	f.Bool("skipverify", o.SkipVerify)
	f.Bool("verifyroundtrip", o.VerifyRoundTrip)
	f.Bool("disable.scaling", o.DisableScaling)
	f.Bool("disable.busxlate", o.DisableBusXlate)
	f.Bool("disable.connectors", o.DisableConnectors)
	f.Bool("disable.globals", o.DisableGlobals)
	f.Bool("disable.cosmetics", o.DisableCosmetics)
	f.Bool("disable.props", o.DisableProps)
	return f.Sum()
}

// fpDialect hashes every Dialect field: all of them change translation
// behaviour (grid scaling, bus syntax, connector policy, text metrics).
func fpDialect(f *memo.FP, prefix string, d schematic.Dialect) {
	f.Str(prefix+".name", d.Name)
	f.Str(prefix+".grid", d.Grid.Name)
	f.Int(prefix+".grid.pitchnm", int(d.Grid.PitchNM))
	f.Int(prefix+".pinspacing", d.PinSpacing)
	f.Bool(prefix+".bus.condensed", d.Bus.Condensed)
	f.Bool(prefix+".bus.postfix", d.Bus.PostfixIndicators)
	f.Bool(prefix+".bus.explicit", d.Bus.ExplicitOnly)
	f.Bool(prefix+".implicitcrosspage", d.ImplicitCrossPage)
	f.Bool(prefix+".requireoffpage", d.RequireOffPage)
	f.Bool(prefix+".requirehier", d.RequireHierConnectors)
	f.Float(prefix+".font.ppg", d.Font.PointsPerGrid)
	f.Int(prefix+".font.baseline", d.Font.BaselineOffset)
	// StandardProps order is not semantic (membership test only).
	props := append([]string(nil), d.StandardProps...)
	sort.Strings(props)
	f.Strs(prefix+".standardprops", props)
	f.Str(prefix+".connectorlib", d.ConnectorLib)
}

// fpSymbol hashes one target-library symbol's replacement-relevant content:
// identity, body, pins, artwork, and properties (in stored order — they are
// copied verbatim into the output).
func fpSymbol(f *memo.FP, s *schematic.Symbol) {
	f.Str("symbol", s.Key().String())
	f.Str("symbol.body", s.Body.String())
	f.Int("symbol.pins", len(s.Pins))
	for _, p := range s.Pins {
		f.Str("pin", fmt.Sprintf("%s@%d,%d/%d", p.Name, p.Pos.X, p.Pos.Y, p.Dir))
	}
	f.Int("symbol.graphics", len(s.Graphics))
	for _, g := range s.Graphics {
		f.Str("graphic", g.String())
	}
	f.Int("symbol.props", len(s.Props))
	for _, p := range s.Props {
		f.Str("prop", fmt.Sprintf("%s=%s vis=%t at=%d,%d size=%d", p.Name, p.Value, p.Visible, p.At.X, p.At.Y, p.Size))
	}
}

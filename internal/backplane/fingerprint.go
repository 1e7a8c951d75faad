package backplane

import (
	"sort"

	"cadinterop/internal/floorplan"
	"cadinterop/internal/memo"
	"cadinterop/internal/phys"
)

// Fingerprint canonicalizes every input of a flow fan-out other than the
// netlist: design frame, floorplan intent, library content, each tool
// dialect in order, placement seed, and the interchange-gate setting, so
// a cached translation (internal/serve) is keyed by all that affects its
// output. The fan-out's worker count and observability handles are
// excluded: the flows' results are byte-identical across them by
// construction.
func Fingerprint(d *phys.Design, fp *floorplan.Floorplan, tools []ToolDialect, seed int64, roundTrip bool) string {
	f := memo.NewFP("backplane.Flows/v1")
	f.Int("seed", int(seed))
	f.Bool("roundtrip", roundTrip)

	// Design frame (the netlist itself is the key's Content field).
	f.Str("design", d.Name)
	f.Str("top", d.Top)
	f.Str("die", d.Die.String())
	insts := make([]string, 0, len(d.Placements))
	for n := range d.Placements {
		insts = append(insts, n)
	}
	sort.Strings(insts)
	f.Int("placements", len(insts))
	for _, n := range insts {
		p := d.Placements[n]
		f.Str("placement", n)
		f.Str("placement.pos", p.Pos.String())
		f.Int("placement.orient", int(p.Orient))
		f.Bool("placement.fixed", p.Fixed)
	}

	f.Int("tools", len(tools))
	for _, t := range tools {
		fpDialect(f, t)
	}
	fpFloorplan(f, fp)
	fpLibrary(f, d.Lib)
	return f.Sum()
}

// fpDialect hashes one tool dialect's full constraint vocabulary.
func fpDialect(f *memo.FP, t ToolDialect) {
	f.Str("tool", t.Name)
	f.Bool("tool.accessprop", t.AccessAsProperty)
	kinds := make([]int, 0, len(t.ConnSupport))
	for k := range t.ConnSupport {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	f.Int("tool.connsupport", len(kinds))
	for _, k := range kinds {
		f.Int("tool.conn.kind", k)
		f.Int("tool.conn.level", int(t.ConnSupport[phys.ConnType(k)]))
	}
	f.Bool("tool.netwidth", t.SupportsNetWidth)
	f.Bool("tool.netspacing", t.SupportsNetSpacing)
	f.Bool("tool.shielding", t.SupportsShielding)
	f.Bool("tool.coupling", t.SupportsCoupling)
	f.Bool("tool.keepouts", t.SupportsKeepouts)
	f.Bool("tool.literalpins", t.SupportsLiteralPins)
}

// fpFloorplan hashes the complete designer intent. All slices hash in
// declaration order: the floorplan is authored, not map-shaped, and the
// translator walks it in order.
func fpFloorplan(f *memo.FP, fp *floorplan.Floorplan) {
	f.Str("fp", fp.Name)
	f.Str("fp.die", fp.Die.String())
	f.Int("fp.blocks", len(fp.Blocks))
	for _, b := range fp.Blocks {
		f.Str("block", b.Name)
		f.Int("block.area", b.Area)
		f.Float("block.aspectmin", b.AspectMin)
		f.Float("block.aspectmax", b.AspectMax)
		f.Str("block.rect", b.Rect.String())
		f.Bool("block.placed", b.Placed)
	}
	f.Int("fp.pins", len(fp.Pins))
	for _, p := range fp.Pins {
		f.Str("pin", p.Pin)
		f.Int("pin.edge", int(p.Edge))
		f.Int("pin.offset", p.Offset)
	}
	f.Int("fp.keepouts", len(fp.Keepouts))
	for _, k := range fp.Keepouts {
		f.Str("keepout", k.Rect.String())
		f.Str("keepout.reason", k.Reason)
	}
	f.Int("fp.netrules", len(fp.NetRules))
	for _, r := range fp.NetRules {
		f.Str("netrule", r.Net)
		f.Int("netrule.width", r.WidthTracks)
		f.Int("netrule.spacing", r.SpacingTracks)
		f.Bool("netrule.shield", r.Shield)
		f.Int("netrule.coupled", r.MaxCoupledLen)
	}
	f.Int("fp.globals", len(fp.Globals))
	for _, g := range fp.Globals {
		f.Str("global", g.Net)
		f.Int("global.style", int(g.Style))
		f.Str("global.layer", g.Layer)
		f.Int("global.width", g.Width)
	}
}

// fpLibrary hashes the technology and every macro abstract (sorted by
// name — the library stores macros in a map).
func fpLibrary(f *memo.FP, lib *phys.Library) {
	f.Str("tech", lib.Tech.Name)
	f.Int("tech.sitew", lib.Tech.SiteWidth)
	f.Int("tech.siteh", lib.Tech.SiteHeight)
	f.Int("tech.layers", len(lib.Tech.Layers))
	for _, l := range lib.Tech.Layers {
		f.Str("layer", l.Name)
		f.Int("layer.dir", int(l.Dir))
		f.Int("layer.pitch", l.Pitch)
		f.Int("layer.minwidth", l.MinWidth)
		f.Int("layer.minspace", l.MinSpace)
	}
	names := make([]string, 0, len(lib.Macros))
	for n := range lib.Macros {
		names = append(names, n)
	}
	sort.Strings(names)
	f.Int("macros", len(names))
	for _, n := range names {
		m := lib.Macros[n]
		f.Str("macro", m.Name)
		f.Str("macro.size", m.Size.String())
		f.Str("macro.site", m.Site)
		f.Int("macro.orients", len(m.LegalOrients))
		for _, o := range m.LegalOrients {
			f.Int("macro.orient", int(o))
		}
		f.Int("macro.pins", len(m.Pins))
		for _, p := range m.Pins {
			f.Str("macro.pin", p.Name)
			f.Int("macro.pin.dir", int(p.Dir))
			f.Int("macro.pin.access", int(p.Access))
			f.Int("macro.pin.shapes", len(p.Shapes))
			for _, s := range p.Shapes {
				f.Str("shape", s.Layer)
				f.Str("shape.rect", s.Rect.String())
			}
			conns := make([]int, 0, len(p.Conn))
			for ct, on := range p.Conn {
				if on {
					conns = append(conns, int(ct))
				}
			}
			sort.Ints(conns)
			f.Int("macro.pin.conns", len(conns))
			for _, ct := range conns {
				f.Int("macro.pin.conn", ct)
			}
		}
		f.Int("macro.blockages", len(m.Blockages))
		for _, b := range m.Blockages {
			f.Str("blockage", b.Layer)
			f.Str("blockage.rect", b.Rect.String())
		}
	}
}

// Flow memoization: a content-addressed cache over one tool's entire
// translate → place → route → audit pipeline. The key is the netlist's
// canonical exchange fingerprint plus a full fingerprint of every other
// flow input (floorplan intent, library, tool dialect, seed); the value is
// the summary subset of FlowResult that every downstream consumer reads —
// loss report, placement/routing headline numbers, audit violations. Warm
// hits skip the tool pipeline entirely, which is what makes repeated
// backplane fan-outs O(changed designs) instead of O(all designs).
package backplane

import (
	"encoding/json"
	"sort"

	"cadinterop/internal/exchange"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/memo"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
)

// cacheVersion frames the cached-flow payload; bump when cachedFlow or any
// serialized field's meaning changes so stale entries miss.
const cacheVersion = "backplane-flow/v1"

// flowKey builds the memoization key for one tool's flow. ok is false when
// the netlist has no canonical serialization — the flow then runs uncached.
func flowKey(d *phys.Design, fp *floorplan.Floorplan, tool ToolDialect, seed int64, roundTrip bool) (memo.Key, bool) {
	content, err := exchange.Fingerprint(d.Nets)
	if err != nil {
		return memo.Key{}, false
	}
	return memo.Key{
		Content: content,
		Tool:    "backplane/" + tool.Name,
		Options: flowFingerprint(d, fp, tool, seed, roundTrip),
	}, true
}

// flowFingerprint canonicalizes every flow input other than the netlist:
// design frame, floorplan intent, library content, tool dialect, placement
// seed, and the interchange-gate setting. The fan-out's worker count and
// observability handles are excluded — the flow's result is byte-identical
// across them by construction.
func flowFingerprint(d *phys.Design, fp *floorplan.Floorplan, tool ToolDialect, seed int64, roundTrip bool) string {
	f := memo.NewFP("backplane.Flow/v1")
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

	fpDialect(f, tool)
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

// cachedRoute is the subset of route.Result every flow consumer reads.
// Routed geometry (Segments) and the incremental path's observability
// fields are intentionally absent: the former would dominate entry size
// for numbers nothing downstream of RunFlows uses, the latter are excluded
// from the identity bar.
type cachedRoute struct {
	Wirelength  int
	Vias        int
	ShieldLen   int
	Failed      []string
	FailReasons []string
}

// cachedFlow is the serialized form of one clean FlowResult.
type cachedFlow struct {
	Version    string
	Tool       string
	Place      *place.Result
	Route      cachedRoute
	Violations []route.Violation
	Loss       *Loss
}

// encodeFlow serializes a clean flow result. ok is false for results that
// must not be cached (failed flows, missing stages).
func encodeFlow(res *FlowResult) ([]byte, bool) {
	if res == nil || res.Err != nil || res.Place == nil || res.Route == nil || res.Loss == nil {
		return nil, false
	}
	data, err := json.Marshal(cachedFlow{
		Version: cacheVersion,
		Tool:    res.Tool,
		Place:   res.Place,
		Route: cachedRoute{
			Wirelength:  res.Route.Wirelength,
			Vias:        res.Route.Vias,
			ShieldLen:   res.Route.ShieldLen,
			Failed:      res.Route.Failed,
			FailReasons: res.Route.FailReasons,
		},
		Violations: res.Violations,
		Loss:       res.Loss,
	})
	if err != nil {
		return nil, false
	}
	return data, true
}

// decodeFlow inverts encodeFlow; any mismatch reports !ok and the caller
// treats the entry as a miss.
func decodeFlow(data []byte) (*FlowResult, bool) {
	var cf cachedFlow
	if err := json.Unmarshal(data, &cf); err != nil || cf.Version != cacheVersion {
		return nil, false
	}
	if cf.Place == nil || cf.Loss == nil {
		return nil, false
	}
	return &FlowResult{
		Tool:  cf.Tool,
		Place: cf.Place,
		Route: &route.Result{
			Wirelength:  cf.Route.Wirelength,
			Vias:        cf.Route.Vias,
			ShieldLen:   cf.Route.ShieldLen,
			Failed:      cf.Route.Failed,
			FailReasons: cf.Route.FailReasons,
		},
		Violations: cf.Violations,
		Loss:       cf.Loss,
	}, true
}

// Package backplane reproduces Section 4's P&R backplane: one floorplan
// (the designer's full intent) is translated into each P&R tool's dialect,
// and whatever a dialect cannot express is dropped or degraded — with a
// loss report, because "though vendors will argue that these features
// competitively differentiate their tool ... there is no standard as to how
// they should be defined and presented". RunFlow then drives the real
// placer and router with the translated (possibly impoverished) constraint
// set and audits the result against the original intent, turning semantic
// loss into measured quality-of-results damage.
package backplane

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cadinterop/internal/exchange"
	"cadinterop/internal/floorplan"
	"cadinterop/internal/geom"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
	"cadinterop/internal/phys"
	"cadinterop/internal/place"
	"cadinterop/internal/route"
)

// ErrTranslate reports translation failures.
var ErrTranslate = errors.New("backplane: translate error")

// ConnSupport describes how a tool ingests one pin connection property.
type ConnSupport uint8

// Connection-property support levels — "Some tools read connection types as
// a set of literal properties on the pin, others require an external file,
// and a few have no predefined support for some connection types."
const (
	ConnLiteral ConnSupport = iota
	ConnExternalFile
	ConnUnsupported
)

var connSupportNames = [...]string{"literal", "external-file", "unsupported"}

// String implements fmt.Stringer.
func (c ConnSupport) String() string {
	if int(c) < len(connSupportNames) {
		return connSupportNames[c]
	}
	return fmt.Sprintf("ConnSupport(%d)", uint8(c))
}

// ToolDialect is one P&R tool's constraint vocabulary.
type ToolDialect struct {
	Name string
	// AccessAsProperty: the tool reads pin access direction as a property;
	// otherwise it derives access from routing blockages.
	AccessAsProperty bool
	// ConnSupport per connection property kind.
	ConnSupport map[phys.ConnType]ConnSupport
	// Net topology constraint support.
	SupportsNetWidth   bool
	SupportsNetSpacing bool
	SupportsShielding  bool
	SupportsCoupling   bool
	// SupportsKeepouts: keep-out zones convey; otherwise they are dropped.
	SupportsKeepouts bool
	// SupportsLiteralPins: literal pin offsets convey; otherwise only the
	// edge (general location) does.
	SupportsLiteralPins bool
}

// Three synthetic tools spanning the support matrix of real ones.
var (
	// ToolP is the full-featured tool: everything conveys.
	ToolP = ToolDialect{
		Name:             "toolP",
		AccessAsProperty: true,
		ConnSupport: map[phys.ConnType]ConnSupport{
			phys.MultipleConnect: ConnLiteral, phys.EquivalentConnect: ConnLiteral,
			phys.MustConnect: ConnLiteral, phys.ConnectByAbutment: ConnLiteral,
		},
		SupportsNetWidth: true, SupportsNetSpacing: true,
		SupportsShielding: true, SupportsCoupling: true,
		SupportsKeepouts: true, SupportsLiteralPins: true,
	}
	// ToolQ derives access from blockages and wants connection types in an
	// external sidecar file; no shielding.
	ToolQ = ToolDialect{
		Name:             "toolQ",
		AccessAsProperty: false,
		ConnSupport: map[phys.ConnType]ConnSupport{
			phys.MultipleConnect: ConnExternalFile, phys.EquivalentConnect: ConnExternalFile,
			phys.MustConnect: ConnExternalFile, phys.ConnectByAbutment: ConnUnsupported,
		},
		SupportsNetWidth: true, SupportsNetSpacing: true,
		SupportsShielding: false, SupportsCoupling: false,
		SupportsKeepouts: true, SupportsLiteralPins: false,
	}
	// ToolR is the minimal tool: no net topology control at all.
	ToolR = ToolDialect{
		Name:             "toolR",
		AccessAsProperty: true,
		ConnSupport: map[phys.ConnType]ConnSupport{
			phys.MultipleConnect: ConnLiteral, phys.EquivalentConnect: ConnUnsupported,
			phys.MustConnect: ConnLiteral, phys.ConnectByAbutment: ConnUnsupported,
		},
		SupportsNetWidth: false, SupportsNetSpacing: false,
		SupportsShielding: false, SupportsCoupling: false,
		SupportsKeepouts: false, SupportsLiteralPins: true,
	}
)

// AllTools lists the built-in dialects.
func AllTools() []ToolDialect { return []ToolDialect{ToolP, ToolQ, ToolR} }

// LossKind classifies translation loss.
type LossKind uint8

// Loss kinds.
const (
	LossDropped LossKind = iota
	LossDegraded
)

// String implements fmt.Stringer.
func (k LossKind) String() string {
	if k == LossDropped {
		return "dropped"
	}
	return "degraded"
}

// LossItem is one constraint the dialect could not fully express.
type LossItem struct {
	Kind   LossKind
	Class  string // "net-width", "shield", "keepout", "pin-literal", "conn-type", "access"
	Object string
	Detail string
}

// String implements fmt.Stringer.
func (l LossItem) String() string {
	return fmt.Sprintf("%s %s %q: %s", l.Kind, l.Class, l.Object, l.Detail)
}

// Loss is the full translation loss report.
type Loss struct {
	Tool  string
	Items []LossItem
}

// Count returns the number of loss items of a class ("" = all).
func (l *Loss) Count(class string) int {
	if class == "" {
		return len(l.Items)
	}
	n := 0
	for _, it := range l.Items {
		if it.Class == class {
			n++
		}
	}
	return n
}

// ToolInput is the constraint set as one tool receives it.
type ToolInput struct {
	Tool string
	// RouteRules is the per-net rule set after degradation.
	RouteRules map[string]route.Rule
	// Keepouts conveyed to the tool.
	Keepouts []geom.Rect
	// PinPositions resolved per top-level pin.
	PinPositions map[string]geom.Point
	// PinAccess resolved per "macro.pin".
	PinAccess map[string]phys.AccessDir
	// ConnProps carries literal connection properties per "macro.pin".
	ConnProps map[string][]phys.ConnType
	// SidecarFile is the external connection-type file for tools that
	// demand one (empty when unused).
	SidecarFile string
}

// Translate converts the floorplan intent plus library into one tool's
// input, reporting every loss.
func Translate(fp *floorplan.Floorplan, lib *phys.Library, tool ToolDialect) (*ToolInput, *Loss) {
	in := &ToolInput{
		Tool:         tool.Name,
		RouteRules:   make(map[string]route.Rule),
		PinPositions: make(map[string]geom.Point),
		PinAccess:    make(map[string]phys.AccessDir),
		ConnProps:    make(map[string][]phys.ConnType),
	}
	loss := &Loss{Tool: tool.Name}

	// Net topology rules.
	for _, r := range fp.NetRules {
		out := route.Rule{WidthTracks: 1}
		if r.WidthTracks > 1 {
			if tool.SupportsNetWidth {
				out.WidthTracks = r.WidthTracks
			} else {
				loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "net-width",
					Object: r.Net, Detail: fmt.Sprintf("width %d tracks -> minimum", r.WidthTracks)})
			}
		}
		if r.SpacingTracks > 0 {
			if tool.SupportsNetSpacing {
				out.SpacingTracks = r.SpacingTracks
			} else {
				loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "net-spacing",
					Object: r.Net, Detail: fmt.Sprintf("spacing %d tracks dropped", r.SpacingTracks)})
			}
		}
		if r.Shield {
			if tool.SupportsShielding {
				out.Shield = true
			} else {
				loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "shield",
					Object: r.Net, Detail: "shield request dropped"})
			}
		}
		if r.MaxCoupledLen > 0 {
			if tool.SupportsCoupling {
				out.MaxCoupledLen = r.MaxCoupledLen
			} else {
				loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "coupling",
					Object: r.Net, Detail: fmt.Sprintf("max coupled length %d dropped", r.MaxCoupledLen)})
			}
		}
		if out.WidthTracks > 1 || out.SpacingTracks > 0 || out.Shield || out.MaxCoupledLen > 0 {
			in.RouteRules[r.Net] = out
		}
	}

	// Keepouts.
	if tool.SupportsKeepouts {
		for _, k := range fp.Keepouts {
			in.Keepouts = append(in.Keepouts, k.Rect)
		}
	} else {
		for _, k := range fp.Keepouts {
			loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "keepout",
				Object: k.Reason, Detail: k.Rect.String()})
		}
	}

	// Pin locations.
	for _, pc := range fp.Pins {
		if pc.Offset >= 0 && !tool.SupportsLiteralPins {
			general := floorplan.PinConstraint{Pin: pc.Pin, Edge: pc.Edge, Offset: -1}
			in.PinPositions[pc.Pin] = general.Position(fp.Die)
			loss.Items = append(loss.Items, LossItem{Kind: LossDegraded, Class: "pin-literal",
				Object: pc.Pin, Detail: fmt.Sprintf("literal offset %d degraded to edge midpoint", pc.Offset)})
			continue
		}
		in.PinPositions[pc.Pin] = pc.Position(fp.Die)
	}

	// Pin access and connection properties per macro.
	macros := make([]string, 0, len(lib.Macros))
	for n := range lib.Macros {
		macros = append(macros, n)
	}
	sort.Strings(macros)
	var sidecar strings.Builder
	for _, mn := range macros {
		m := lib.Macros[mn]
		for _, p := range m.Pins {
			key := mn + "." + p.Name
			if tool.AccessAsProperty {
				in.PinAccess[key] = p.Access
			} else {
				derived := m.DeriveAccess(p)
				in.PinAccess[key] = derived
				if derived != p.Access {
					loss.Items = append(loss.Items, LossItem{Kind: LossDegraded, Class: "access",
						Object: key, Detail: fmt.Sprintf("property says %v, blockage derivation says %v", p.Access, derived)})
				}
			}
			kinds := make([]phys.ConnType, 0, len(p.Conn))
			for ct, on := range p.Conn {
				if on {
					kinds = append(kinds, ct)
				}
			}
			sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
			for _, ct := range kinds {
				switch tool.ConnSupport[ct] {
				case ConnLiteral:
					in.ConnProps[key] = append(in.ConnProps[key], ct)
				case ConnExternalFile:
					fmt.Fprintf(&sidecar, "CONN %s %s\n", key, ct)
				default:
					loss.Items = append(loss.Items, LossItem{Kind: LossDropped, Class: "conn-type",
						Object: key, Detail: ct.String()})
				}
			}
		}
	}
	in.SidecarFile = sidecar.String()
	return in, loss
}

// FlowResult is the outcome of driving one tool with translated input.
// A faulted tool still yields a result entry: Err records the failure and
// the physical fields stay nil, so one dead dialect never loses the rest
// of the fan-out.
type FlowResult struct {
	Tool       string
	Place      *place.Result
	Route      *route.Result
	Violations []route.Violation
	Loss       *Loss
	Err        error
}

// FullRules converts the floorplan's net rules to router form, for
// auditing results against the original intent.
func FullRules(fp *floorplan.Floorplan) map[string]route.Rule {
	out := make(map[string]route.Rule, len(fp.NetRules))
	for _, r := range fp.NetRules {
		w := r.WidthTracks
		if w < 1 {
			w = 1
		}
		out[r.Net] = route.Rule{
			WidthTracks:   w,
			SpacingTracks: r.SpacingTracks,
			Shield:        r.Shield,
			MaxCoupledLen: r.MaxCoupledLen,
		}
	}
	return out
}

// RunFlow places and routes the design using ONE tool's translated
// constraints, then audits against the full floorplan intent. The router
// runs serially: parallelism lives in the RunFlows tool fan-out.
func RunFlow(d *phys.Design, fp *floorplan.Floorplan, tool ToolDialect, seed int64) (*FlowResult, error) {
	return runFlow(d, fp, tool, seed, nil, 0, nil)
}

// runFlow is RunFlow with tracing: each stage of the tool's flow —
// translate, place, route, audit — gets a child span under parent in
// rec, annotated with the stage's headline numbers, and the router's
// counters land in reg. All three observability arguments may be nil.
func runFlow(d *phys.Design, fp *floorplan.Floorplan, tool ToolDialect, seed int64,
	rec *obs.Recorder, parent obs.SpanID, reg *obs.Registry) (*FlowResult, error) {
	// Every actual tool execution counts here — a warm cache hit in
	// RunFlowsObserved never reaches this function, so the counter is the
	// ground truth for "did any tool really run".
	reg.Counter("backplane.tool_execs").Inc()
	tsp := rec.Start(parent, "translate")
	in, loss := Translate(fp, d.Lib, tool)
	rec.AttrInt(tsp, "loss", int64(len(loss.Items)))
	rec.End(tsp)

	psp := rec.Start(parent, "place")
	pres, err := place.Place(d, place.Options{Seed: seed, Keepouts: in.Keepouts})
	if err != nil {
		rec.End(psp)
		return nil, fmt.Errorf("%s: %w", tool.Name, err)
	}
	rec.AttrInt(psp, "hpwl", int64(pres.FinalHPWL))
	rec.End(psp)

	rsp := rec.Start(parent, "route")
	rres, err := route.Route(d, route.Options{
		Pitch:    5, // half the layer pitch: room for width/spacing rules
		Rules:    in.RouteRules,
		Keepouts: in.Keepouts,
		Metrics:  reg,
	})
	if err != nil {
		rec.End(rsp)
		return nil, fmt.Errorf("%s: %w", tool.Name, err)
	}
	rec.AttrInt(rsp, "wirelen", int64(rres.Wirelength))
	rec.AttrInt(rsp, "vias", int64(rres.Vias))
	rec.AttrInt(rsp, "unrouted", int64(len(rres.Failed)))
	rec.End(rsp)

	asp := rec.Start(parent, "audit")
	violations := route.Audit(rres, FullRules(fp))
	rec.AttrInt(asp, "violations", int64(len(violations)))
	rec.End(asp)
	return &FlowResult{
		Tool:       tool.Name,
		Place:      pres,
		Route:      rres,
		Violations: violations,
		Loss:       loss,
	}, nil
}

// RunFlows drives every tool dialect concurrently — the Section 4
// backplane as a fan-out: the same designer intent hits N tools at once,
// exactly the handoff shape modern flows have. Because place and route
// write placements into the design, each flow gets a private design and
// floorplan from gen (gen must be safe to call concurrently; generators in
// internal/workgen are). Results come back in tool order and are
// byte-identical to running the tools one at a time.
//
// Degradation is graceful: a tool that fails still occupies its slot in
// the result slice, carrying the error in FlowResult.Err with nil physical
// fields — one dead dialect never loses the others' runs. The returned
// error is the lowest-index tool's error (what a sequential fail-fast loop
// would have surfaced), so callers that abort on error see unchanged
// behaviour, while callers that inspect per-entry Err keep every
// surviving flow.
func RunFlows(gen func() (*phys.Design, *floorplan.Floorplan, error), tools []ToolDialect, seed int64, opts ...par.Option) ([]*FlowResult, error) {
	return RunFlowsObserved(gen, tools, seed, false, nil, nil, opts...)
}

// RunFlowsObserved is RunFlows with an optional interchange integrity
// gate, observability and a result cache attached.
//
// When roundTrip is true, each tool's private netlist is round-tripped
// through the exchange format (write → read under checksum/manifest
// guards → semantic compare) before the flow runs, so interchange
// corruption is caught at the handoff instead of surfacing as silent
// quality-of-results damage downstream. A gate failure occupies the
// tool's result slot via FlowResult.Err, like any other per-tool failure.
//
// Each tool's flow records into a private child recorder on its own
// step-clock — flows run concurrently, but each child is single-writer
// and deterministic — and the children merge under one "backplane" span
// in canonical tool order once the fan-out completes, so the final trace
// is byte-identical at every worker count. Fan-out loss and failure
// totals, the router's counters, and the pool's queue metrics land in
// rec's registry. rec may be nil.
//
// cache memoizes each tool's clean flow (nil = no memoization).
func RunFlowsObserved(gen func() (*phys.Design, *floorplan.Floorplan, error), tools []ToolDialect, seed int64, roundTrip bool, rec *obs.Recorder, cache *memo.Cache, opts ...par.Option) ([]*FlowResult, error) {
	reg := rec.Metrics()
	var children []*obs.Recorder
	if rec != nil {
		children = make([]*obs.Recorder, len(tools))
		for i := range children {
			children[i] = obs.New(nil)
		}
		opts = append(opts, par.Metrics(reg))
	}
	results, errs := par.MapAll(len(tools), func(i int) (*FlowResult, error) {
		var crec *obs.Recorder
		if children != nil {
			crec = children[i]
		}
		sp := crec.Start(0, tools[i].Name)
		d, fp, err := gen()
		if err != nil {
			err = fmt.Errorf("%s: %w", tools[i].Name, err)
			crec.Attr(sp, "state", "failed")
			crec.End(sp)
			return &FlowResult{Tool: tools[i].Name, Err: err}, err
		}
		if roundTrip {
			if err := exchange.VerifyRoundTrip(d.Nets); err != nil {
				err = fmt.Errorf("%s: interchange gate: %w", tools[i].Name, err)
				crec.Event(sp, "roundtrip-gate", "failed")
				crec.Attr(sp, "state", "failed")
				crec.End(sp)
				return &FlowResult{Tool: tools[i].Name, Err: err}, err
			}
		}
		// Memoization: a prior clean run of the same (netlist, floorplan,
		// library, dialect, seed) answers without executing the tool. The
		// interchange gate above still runs warm — it guards the handoff,
		// not the tool.
		key, keyed := memo.Key{}, false
		if cache != nil {
			if k, ok := flowKey(d, fp, tools[i], seed, roundTrip); ok {
				key, keyed = k, true
				if data, hit := cache.Get(key); hit {
					if res, ok := decodeFlow(data); ok {
						crec.Event(sp, "cache", "hit")
						crec.End(sp)
						return res, nil
					}
				}
			}
		}
		res, err := runFlow(d, fp, tools[i], seed, crec, sp, reg)
		if err != nil {
			crec.Attr(sp, "state", "failed")
			crec.End(sp)
			return &FlowResult{Tool: tools[i].Name, Err: err}, err
		}
		if keyed {
			if enc, ok := encodeFlow(res); ok {
				cache.Put(key, enc)
			}
		}
		crec.End(sp)
		return res, nil
	}, opts...)
	if rec != nil {
		root := rec.Start(0, "backplane")
		rec.AttrInt(root, "tools", int64(len(tools)))
		for _, c := range children {
			rec.Merge(root, c)
		}
		rec.End(root)
		recordLossMetrics(reg, results)
	}
	return results, par.FirstError(errs)
}

// recordLossMetrics totals the fan-out's translation damage and failures
// into reg — the in-situ record of where constraint fidelity went.
func recordLossMetrics(reg *obs.Registry, results []*FlowResult) {
	for _, res := range results {
		if res == nil {
			continue
		}
		if res.Err != nil {
			reg.Counter("backplane.flows.failed").Inc()
			continue
		}
		reg.Counter("backplane.flows.ok").Inc()
		if res.Loss == nil {
			continue
		}
		for _, it := range res.Loss.Items {
			if it.Kind == LossDropped {
				reg.Counter("backplane.loss.dropped").Inc()
			} else {
				reg.Counter("backplane.loss.degraded").Inc()
			}
		}
	}
}

// ClassLoss aggregates translation loss for one constraint class across
// every dialect of a fan-out.
type ClassLoss struct {
	Class    string
	Dropped  int
	Degraded int
	// PerTool counts loss items per dialect, indexed like the merged
	// result order (tool order, not completion order).
	PerTool []int
}

// MergeLoss folds the per-dialect loss reports of a fan-out into
// per-class aggregates. The merge is deterministic regardless of the
// concurrency that produced the inputs: classes sort alphabetically and
// per-tool counts follow the result slice's tool order.
func MergeLoss(results []*FlowResult) []ClassLoss {
	byClass := make(map[string]*ClassLoss)
	for ti, res := range results {
		if res == nil || res.Loss == nil {
			continue
		}
		for _, it := range res.Loss.Items {
			cl := byClass[it.Class]
			if cl == nil {
				cl = &ClassLoss{Class: it.Class, PerTool: make([]int, len(results))}
				byClass[it.Class] = cl
			}
			if it.Kind == LossDropped {
				cl.Dropped++
			} else {
				cl.Degraded++
			}
			cl.PerTool[ti]++
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := make([]ClassLoss, 0, len(classes))
	for _, c := range classes {
		out = append(out, *byClass[c])
	}
	return out
}

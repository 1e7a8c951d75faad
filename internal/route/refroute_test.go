package route

// A retained copy of the pre-interning, string-keyed sequential router.
// This is the reference implementation the interned-ID core is proven
// against: refRoute must produce byte-identical results (wirelength, vias,
// failures, shield length, audit findings and every grid cell) to Route.
// It lives in a _test.go file so no dead code ships. It keeps the
// coordinate nodes and wire segments the production router no longer
// has.

import (
	"fmt"
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/phys"
)

// node is a die cell on a layer.
type node struct {
	l, x, y int
}

// Segment is one routed wire piece in grid coordinates.
type Segment struct {
	Layer int // 0 = horizontal layer, 1 = vertical layer
	A, B  geom.Point
}

type refGrid struct {
	W, H     int
	Pitch    int
	own      [2][]string
	pin      []bool
	plainBFS bool
}

func refNewGrid(die geom.Rect, pitch int) *refGrid {
	w := die.Dx()/pitch + 1
	h := die.Dy()/pitch + 1
	g := &refGrid{W: w, H: h, Pitch: pitch, pin: make([]bool, w*h)}
	for l := 0; l < 2; l++ {
		g.own[l] = make([]string, w*h)
	}
	return g
}

func (g *refGrid) isPin(x, y int) bool {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return false
	}
	return g.pin[y*g.W+x]
}

func (g *refGrid) owner(layer, x, y int) string {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return "#"
	}
	return g.own[layer][y*g.W+x]
}

func (g *refGrid) set(layer, x, y int, net string) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.own[layer][y*g.W+x] = net
}

type refResult struct {
	Segments    map[string][]Segment
	Wirelength  int
	Vias        int
	Failed      []string
	FailReasons []string
	ShieldLen   int
	grid        *refGrid
}

func refRoute(d *phys.Design, opts Options) (*refResult, error) {
	if opts.Pitch <= 0 {
		opts.Pitch = 10
	}
	res := &refResult{Segments: make(map[string][]Segment)}
	top := d.TopCell()
	netPins := make(map[string][]geom.Point)
	for _, in := range top.InstanceNames() {
		inst := top.Instances[in]
		pins := make([]string, 0, len(inst.Conns))
		for p := range inst.Conns {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		for _, pin := range pins {
			net := inst.Conns[pin]
			if opts.SkipNets[net] {
				continue
			}
			pos, err := d.PinPos(in, pin)
			if err != nil {
				return nil, err
			}
			gp := geom.Pt((pos.X-d.Die.Min.X)/opts.Pitch, (pos.Y-d.Die.Min.Y)/opts.Pitch)
			netPins[net] = append(netPins[net], gp)
		}
	}
	res.grid = refFreshGrid(d, opts, netPins)

	nets := make([]string, 0, len(netPins))
	for n, ps := range netPins {
		if len(ps) >= 2 {
			nets = append(nets, n)
		}
	}
	sort.Slice(nets, func(i, j int) bool {
		_, ci := opts.Rules[nets[i]]
		_, cj := opts.Rules[nets[j]]
		if ci != cj {
			return ci
		}
		if len(netPins[nets[i]]) != len(netPins[nets[j]]) {
			return len(netPins[nets[i]]) > len(netPins[nets[j]])
		}
		return nets[i] < nets[j]
	})

	refRouteAll(res.grid, res, nets, netPins, opts)
	if len(res.Failed) == 0 {
		return res, nil
	}
	best := res
	order := nets
	for pass := 0; pass < 6 && len(best.Failed) > 0; pass++ {
		order = promoteFailed(order, best.Failed)
		if pass > 0 {
			order = rotateTail(order, len(best.Failed), pass)
		}
		attempt := &refResult{Segments: make(map[string][]Segment)}
		attempt.grid = refFreshGrid(d, opts, netPins)
		refRouteAll(attempt.grid, attempt, order, netPins, opts)
		if len(attempt.Failed) < len(best.Failed) {
			best = attempt
		}
	}
	return best, nil
}

func refFreshGrid(d *phys.Design, opts Options, netPins map[string][]geom.Point) *refGrid {
	g := refNewGrid(d.Die, opts.Pitch)
	g.plainBFS = opts.PlainBFS
	for _, ko := range opts.Keepouts {
		x0 := (ko.Min.X - d.Die.Min.X) / opts.Pitch
		y0 := (ko.Min.Y - d.Die.Min.Y) / opts.Pitch
		x1 := gridMax(ko.Max.X-d.Die.Min.X, opts.Pitch)
		y1 := gridMax(ko.Max.Y-d.Die.Min.Y, opts.Pitch)
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				g.set(0, x, y, "#")
				g.set(1, x, y, "#")
			}
		}
	}
	names := make([]string, 0, len(netPins))
	for n := range netPins {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range netPins[n] {
			if p.X >= 0 && p.Y >= 0 && p.X < g.W && p.Y < g.H {
				g.pin[p.Y*g.W+p.X] = true
			}
			if g.owner(0, p.X, p.Y) == "" {
				g.set(0, p.X, p.Y, "?"+n)
			}
		}
	}
	return g
}

func refRouteAll(g *refGrid, res *refResult, order []string, netPins map[string][]geom.Point, opts Options) {
	for _, net := range order {
		if err := refRouteNet(g, res, net, netPins[net], normRule(opts.Rules[net])); err != nil {
			res.Failed = append(res.Failed, net)
			res.FailReasons = append(res.FailReasons, err.Error())
		}
	}
}

func refRouteNet(g *refGrid, res *refResult, net string, pins []geom.Point, rule Rule) error {
	paths, err := refNetPaths(g, net, pins, rule)
	refRecordPaths(res, net, paths)
	if err != nil {
		return err
	}
	if rule.Shield {
		res.ShieldLen += refAddShields(g, net)
	}
	if rule.SpacingTracks > 0 {
		refAddHalo(g, net, rule.SpacingTracks)
	}
	return nil
}

func refNetPaths(g *refGrid, net string, pins []geom.Point, rule Rule) ([][]node, error) {
	seed := pins[0]
	pinRule := Rule{WidthTracks: 1}
	refClaim(g, net, node{0, seed.X, seed.Y}, pinRule)
	var paths [][]node
	for _, target := range pins[1:] {
		if g.owner(0, target.X, target.Y) == net {
			continue
		}
		path, err := refBfs(g, net, node{0, target.X, target.Y}, rule)
		if err != nil {
			return paths, err
		}
		for i, n := range path {
			switch {
			case i == 0:
			case i == len(path)-1:
				refClaim(g, net, n, pinRule)
			default:
				refClaim(g, net, n, rule)
			}
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func refRecordPaths(res *refResult, net string, paths [][]node) {
	for _, path := range paths {
		for i := 1; i < len(path); i++ {
			p, n := path[i-1], path[i]
			if p.l != n.l {
				res.Vias++
			} else {
				res.Wirelength++
				res.Segments[net] = append(res.Segments[net], Segment{
					Layer: n.l, A: geom.Pt(p.x, p.y), B: geom.Pt(n.x, n.y)})
			}
		}
	}
}

func refClaim(g *refGrid, net string, n node, rule Rule) {
	g.set(n.l, n.x, n.y, net)
	for w := 1; w < rule.WidthTracks; w++ {
		if n.l == 0 {
			g.set(n.l, n.x, n.y+w, net)
		} else {
			g.set(n.l, n.x+w, n.y, net)
		}
	}
}

func refOwnCell(owner, net string) bool {
	return owner == net || owner == "?"+net
}

func refForeignSignal(owner, net string) bool {
	return owner != "" && !refOwnCell(owner, net) && owner != "#" &&
		owner[0] != '!' && owner[0] != '~' && owner[0] != '?'
}

func refUsable(g *refGrid, net string, n node, rule Rule) bool {
	cells := []node{n}
	for i := 1; i < rule.WidthTracks; i++ {
		if n.l == 0 {
			cells = append(cells, node{n.l, n.x, n.y + i})
		} else {
			cells = append(cells, node{n.l, n.x + i, n.y})
		}
	}
	for _, c := range cells {
		if c.x < 0 || c.y < 0 || c.x >= g.W || c.y >= g.H {
			return false
		}
		if o := g.owner(c.l, c.x, c.y); !refOwnCell(o, net) && o != "" {
			return false
		}
		if g.isPin(c.x, c.y) {
			continue
		}
		for s := 1; s <= rule.SpacingTracks; s++ {
			var cells2 []node
			if c.l == 0 {
				cells2 = []node{{c.l, c.x, c.y - s}, {c.l, c.x, c.y + s}}
			} else {
				cells2 = []node{{c.l, c.x - s, c.y}, {c.l, c.x + s, c.y}}
			}
			for _, c2 := range cells2 {
				if g.isPin(c2.x, c2.y) {
					continue
				}
				o := g.owner(c2.l, c2.x, c2.y)
				if o != "" && !refOwnCell(o, net) && o != "#" && o[0] != '!' && o[0] != '~' {
					return false
				}
			}
		}
	}
	return true
}

func refNearPin(g *refGrid, n node) bool {
	if g.isPin(n.x, n.y) {
		return true
	}
	return g.isPin(n.x-1, n.y) || g.isPin(n.x+1, n.y) ||
		g.isPin(n.x, n.y-1) || g.isPin(n.x, n.y+1)
}

func refNeighbors(n node) []node {
	var out []node
	if n.l == 0 {
		out = append(out, node{0, n.x - 1, n.y}, node{0, n.x + 1, n.y})
	} else {
		out = append(out, node{1, n.x, n.y - 1}, node{1, n.x, n.y + 1})
	}
	out = append(out, node{1 - n.l, n.x, n.y})
	return out
}

func refBfs(g *refGrid, net string, from node, rule Rule) ([]node, error) {
	if !refUsable(g, net, from, Rule{WidthTracks: 1}) {
		return nil, fmt.Errorf("%w: net %s pin cell blocked", ErrRoute, net)
	}
	viaCost, pinAdjCost := 3, 4
	if g.plainBFS {
		viaCost, pinAdjCost = 1, 0
	}
	prev := make(map[node]node)
	dist := map[node]int{from: 0}
	buckets := map[int][]node{0: {from}}
	maxCost := 0
	for d := 0; d <= maxCost+1; d++ {
		for len(buckets[d]) > 0 {
			cur := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if dist[cur] != d {
				continue
			}
			if g.owner(cur.l, cur.x, cur.y) == net {
				var path []node
				for n := cur; ; {
					path = append(path, n)
					p, ok := prev[n]
					if !ok {
						break
					}
					n = p
				}
				return path, nil
			}
			for _, nb := range refNeighbors(cur) {
				owner := g.owner(nb.l, nb.x, nb.y)
				if !(owner == net || (refOwnCell(owner, net) || owner == "") && refUsable(g, net, nb, rule)) {
					continue
				}
				step := 1
				if nb.l != cur.l {
					step = viaCost
				}
				if owner != net && refNearPin(g, nb) {
					step += pinAdjCost
				}
				nd := d + step
				if old, ok := dist[nb]; ok && old <= nd {
					continue
				}
				dist[nb] = nd
				prev[nb] = cur
				buckets[nd] = append(buckets[nd], nb)
				if nd > maxCost {
					maxCost = nd
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: net %s unroutable", ErrRoute, net)
}

func refAddHalo(g *refGrid, net string, dist int) {
	marker := "~" + net
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net {
					continue
				}
				for s := 1; s <= dist; s++ {
					var cells []node
					if l == 0 {
						cells = []node{{l, x, y - s}, {l, x, y + s}}
					} else {
						cells = []node{{l, x - s, y}, {l, x + s, y}}
					}
					for _, c := range cells {
						if c.x >= 0 && c.y >= 0 && c.x < g.W && c.y < g.H && g.owner(c.l, c.x, c.y) == "" {
							g.set(c.l, c.x, c.y, marker)
						}
					}
				}
			}
		}
	}
}

func refAddShields(g *refGrid, net string) int {
	added := 0
	marker := "!" + net
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net {
					continue
				}
				var adj []node
				if l == 0 {
					adj = []node{{l, x, y - 1}, {l, x, y + 1}}
				} else {
					adj = []node{{l, x - 1, y}, {l, x + 1, y}}
				}
				for _, a := range adj {
					if a.x >= 0 && a.y >= 0 && a.x < g.W && a.y < g.H && g.owner(a.l, a.x, a.y) == "" {
						g.set(a.l, a.x, a.y, marker)
						added++
					}
				}
			}
		}
	}
	return added
}

// --- reference audit ----------------------------------------------------

func refCouplingRun(g *refGrid, net string) (worstNet string, run int) {
	runs := make(map[string]int)
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net {
					continue
				}
				var adj []node
				if l == 0 {
					adj = []node{{l, x, y - 1}, {l, x, y + 1}}
				} else {
					adj = []node{{l, x - 1, y}, {l, x + 1, y}}
				}
				for _, a := range adj {
					if o := g.owner(a.l, a.x, a.y); refForeignSignal(o, net) {
						runs[o]++
					}
				}
			}
		}
	}
	for n, c := range runs {
		if c > run || (c == run && n < worstNet) {
			worstNet, run = n, c
		}
	}
	return worstNet, run
}

func refActualMinWidth(g *refGrid, net string) int {
	min := 1 << 30
	found := false
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net || g.isPin(x, y) {
					continue
				}
				found = true
				w := 1
				if l == 0 {
					for d := 1; g.owner(l, x, y+d) == net; d++ {
						w++
					}
					for d := 1; g.owner(l, x, y-d) == net; d++ {
						w++
					}
				} else {
					for d := 1; g.owner(l, x+d, y) == net; d++ {
						w++
					}
					for d := 1; g.owner(l, x-d, y) == net; d++ {
						w++
					}
				}
				if w < min {
					min = w
				}
			}
		}
	}
	if !found {
		return 0
	}
	return min
}

func refMinClearance(g *refGrid, net string, window int) int {
	min := window + 1
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net || g.isPin(x, y) {
					continue
				}
				for s := 1; s <= window; s++ {
					var cells []node
					if l == 0 {
						cells = []node{{l, x, y - s}, {l, x, y + s}}
					} else {
						cells = []node{{l, x - s, y}, {l, x + s, y}}
					}
					for _, c := range cells {
						if g.isPin(c.x, c.y) {
							continue
						}
						if o := g.owner(c.l, c.x, c.y); refForeignSignal(o, net) {
							if s < min {
								min = s
							}
						}
					}
				}
			}
		}
	}
	return min
}

func refShieldCoverage(g *refGrid, net string) float64 {
	var total, covered int
	for l := 0; l < 2; l++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if g.owner(l, x, y) != net || g.isPin(x, y) {
					continue
				}
				var adj []node
				if l == 0 {
					adj = []node{{l, x, y - 1}, {l, x, y + 1}}
				} else {
					adj = []node{{l, x - 1, y}, {l, x + 1, y}}
				}
				for _, a := range adj {
					if a.x < 0 || a.y < 0 || a.x >= g.W || a.y >= g.H {
						continue
					}
					total++
					o := g.owner(a.l, a.x, a.y)
					if refOwnCell(o, net) || o == "!"+net || g.isPin(a.x, a.y) {
						covered++
					}
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}

func refAudit(res *refResult, fullRules map[string]Rule) []Violation {
	var out []Violation
	nets := make([]string, 0, len(fullRules))
	for n := range fullRules {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	failed := make(map[string]bool, len(res.Failed))
	for _, f := range res.Failed {
		failed[f] = true
	}
	g := res.grid
	for _, net := range nets {
		rule := fullRules[net]
		if failed[net] {
			out = append(out, Violation{Net: net, Kind: "unrouted", Detail: "router gave up"})
			continue
		}
		if w := refActualMinWidth(g, net); rule.WidthTracks > 1 && w > 0 && w < rule.WidthTracks {
			out = append(out, Violation{Net: net, Kind: "width",
				Detail: fmt.Sprintf("routed %d tracks, need %d", w, rule.WidthTracks)})
		}
		if rule.SpacingTracks > 0 {
			if c := refMinClearance(g, net, rule.SpacingTracks); c <= rule.SpacingTracks {
				out = append(out, Violation{Net: net, Kind: "spacing",
					Detail: fmt.Sprintf("clearance %d tracks, need > %d", c, rule.SpacingTracks)})
			}
		}
		if rule.Shield {
			if cov := refShieldCoverage(g, net); cov < 0.9 {
				out = append(out, Violation{Net: net, Kind: "shield",
					Detail: fmt.Sprintf("coverage %.0f%%, need 90%%", cov*100)})
			}
		}
		if rule.MaxCoupledLen > 0 {
			if agg, run := refCouplingRun(g, net); run > rule.MaxCoupledLen {
				out = append(out, Violation{Net: net, Kind: "coupling",
					Detail: fmt.Sprintf("parallel run %d with %s exceeds %d", run, agg, rule.MaxCoupledLen)})
			}
		}
	}
	return out
}

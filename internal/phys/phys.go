// Package phys defines the physical-design substrate for Section 4:
// technology layers, cell abstract views ("cell/block boundaries, site
// types, legal orientations, a complex set of pin data, and routing
// blockages"), and placed designs. The pin model carries the full
// connection-property set the paper enumerates — access direction,
// multiple connect, equivalent connect, must connect, connect by
// abutment — because which subset a P&R tool understands, and *how* it
// wants it expressed, is exactly what the backplane package has to
// negotiate.
package phys

import (
	"errors"
	"fmt"
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
)

// Errors.
var (
	ErrBadLibrary = errors.New("phys: bad library")
	ErrBadDesign  = errors.New("phys: bad design")
)

// RouteDir is a layer's preferred routing direction.
type RouteDir uint8

// Routing directions.
const (
	Horizontal RouteDir = iota
	Vertical
)

// String implements fmt.Stringer.
func (d RouteDir) String() string {
	if d == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// Layer is one routing layer.
type Layer struct {
	Name     string
	Dir      RouteDir
	Pitch    int // track pitch in DBU
	MinWidth int
	MinSpace int
}

// Tech is the process technology view.
type Tech struct {
	Name       string
	Layers     []Layer
	SiteWidth  int
	SiteHeight int
}

// Layer finds a layer by name.
func (t *Tech) Layer(name string) (Layer, bool) {
	for _, l := range t.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return Layer{}, false
}

// AccessDir is the set of sides from which a router may approach a pin.
type AccessDir uint8

// Access sides (bit mask).
const (
	AccessNorth AccessDir = 1 << iota
	AccessSouth
	AccessEast
	AccessWest
	AccessAll = AccessNorth | AccessSouth | AccessEast | AccessWest
)

// String implements fmt.Stringer.
func (a AccessDir) String() string {
	if a == AccessAll {
		return "NSEW"
	}
	s := ""
	if a&AccessNorth != 0 {
		s += "N"
	}
	if a&AccessSouth != 0 {
		s += "S"
	}
	if a&AccessEast != 0 {
		s += "E"
	}
	if a&AccessWest != 0 {
		s += "W"
	}
	if s == "" {
		return "none"
	}
	return s
}

// ConnType enumerates the paper's pin connection properties.
type ConnType uint8

// Connection property kinds.
const (
	MultipleConnect ConnType = iota
	EquivalentConnect
	MustConnect
	ConnectByAbutment
	connTypeCount
)

var connTypeNames = [...]string{
	"multiple-connect", "equivalent-connect", "must-connect", "connect-by-abutment",
}

// String implements fmt.Stringer.
func (c ConnType) String() string {
	if int(c) < len(connTypeNames) {
		return connTypeNames[c]
	}
	return fmt.Sprintf("ConnType(%d)", uint8(c))
}

// AllConnTypes lists every connection property.
func AllConnTypes() []ConnType {
	out := make([]ConnType, connTypeCount)
	for i := range out {
		out[i] = ConnType(i)
	}
	return out
}

// Shape is a rectangle on a named layer.
type Shape struct {
	Layer string
	Rect  geom.Rect
}

// Pin is a macro pin: "The parts of a pin are: a name, location, shape,
// layer, and a set of connection properties."
type Pin struct {
	Name   string
	Dir    netlist.PortDir
	Shapes []Shape
	Access AccessDir
	Conn   map[ConnType]bool
}

// Center returns the centroid of the pin's first shape.
func (p *Pin) Center() geom.Point {
	if len(p.Shapes) == 0 {
		return geom.Point{}
	}
	return p.Shapes[0].Rect.Center()
}

// Macro is a cell/block abstract view.
type Macro struct {
	Name string
	// Size is the boundary (origin at 0,0).
	Size geom.Point
	// Site names the placement site type.
	Site string
	// LegalOrients lists allowed orientations; empty means all eight.
	LegalOrients []geom.Orientation
	Pins         []*Pin
	// Blockages are routing obstructions inside the boundary.
	Blockages []Shape
}

// Pin finds a pin by name.
func (m *Macro) Pin(name string) (*Pin, bool) {
	for _, p := range m.Pins {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// OrientLegal reports whether o is allowed for this macro.
func (m *Macro) OrientLegal(o geom.Orientation) bool {
	if len(m.LegalOrients) == 0 {
		return true
	}
	for _, lo := range m.LegalOrients {
		if lo == o {
			return true
		}
	}
	return false
}

// DeriveAccess infers a pin's access directions from the macro's routing
// blockages — the strategy of tools that do NOT read access direction as a
// property ("some tools read access direction as a property, while others
// try to determine it from the routing blockages"). A side is accessible if
// the corridor from the pin shape to that boundary edge is blockage-free.
func (m *Macro) DeriveAccess(pin *Pin) AccessDir {
	if len(pin.Shapes) == 0 {
		return AccessAll
	}
	r := pin.Shapes[0].Rect
	var out AccessDir
	corridors := []struct {
		side AccessDir
		rect geom.Rect
	}{
		{AccessNorth, geom.R(r.Min.X, r.Max.Y, r.Max.X, m.Size.Y)},
		{AccessSouth, geom.R(r.Min.X, 0, r.Max.X, r.Min.Y)},
		{AccessEast, geom.R(r.Max.X, r.Min.Y, m.Size.X, r.Max.Y)},
		{AccessWest, geom.R(0, r.Min.Y, r.Min.X, r.Max.Y)},
	}
	for _, c := range corridors {
		clear := true
		for _, b := range m.Blockages {
			if b.Layer == pin.Shapes[0].Layer && b.Rect.Overlaps(c.rect) && !degenerateTouch(b.Rect, c.rect) {
				clear = false
				break
			}
		}
		if clear {
			out |= c.side
		}
	}
	return out
}

// degenerateTouch reports overlap that is only an edge contact.
func degenerateTouch(a, b geom.Rect) bool {
	i, ok := a.Intersect(b)
	if !ok {
		return true
	}
	return i.Dx() == 0 || i.Dy() == 0
}

// Library is a technology plus macros.
type Library struct {
	Tech   Tech
	Macros map[string]*Macro
}

// NewLibrary returns an empty library with the given tech.
func NewLibrary(t Tech) *Library {
	return &Library{Tech: t, Macros: make(map[string]*Macro)}
}

// AddMacro registers a macro.
func (l *Library) AddMacro(m *Macro) error {
	if _, ok := l.Macros[m.Name]; ok {
		return fmt.Errorf("%w: duplicate macro %q", ErrBadLibrary, m.Name)
	}
	l.Macros[m.Name] = m
	return nil
}

// Macro fetches a macro.
func (l *Library) Macro(name string) (*Macro, bool) {
	m, ok := l.Macros[name]
	return m, ok
}

// Validate checks library consistency: pins inside boundaries, legal
// orientations valid, layers known.
func (l *Library) Validate() error {
	var probs []string
	names := make([]string, 0, len(l.Macros))
	for n := range l.Macros {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := l.Macros[n]
		bound := geom.Rect{Max: m.Size}
		for _, p := range m.Pins {
			for _, s := range p.Shapes {
				if !bound.ContainsRect(s.Rect) {
					probs = append(probs, fmt.Sprintf("macro %s pin %s shape %v outside boundary", n, p.Name, s.Rect))
				}
				if _, ok := l.Tech.Layer(s.Layer); !ok {
					probs = append(probs, fmt.Sprintf("macro %s pin %s on unknown layer %q", n, p.Name, s.Layer))
				}
			}
		}
		for _, o := range m.LegalOrients {
			if !o.Valid() {
				probs = append(probs, fmt.Sprintf("macro %s has invalid orientation", n))
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("%w: %d problems (first: %s)", ErrBadLibrary, len(probs), probs[0])
	}
	return nil
}

// Placement is one instance's physical location.
type Placement struct {
	Pos    geom.Point
	Orient geom.Orientation
	Fixed  bool
}

// Design is a flat physical design: a netlist top cell, a die, and
// placements.
type Design struct {
	Name       string
	Die        geom.Rect
	Lib        *Library
	Nets       *netlist.Netlist
	Top        string
	Placements map[string]Placement
}

// NewDesign wraps a netlist top cell for physical implementation.
func NewDesign(name string, die geom.Rect, lib *Library, nets *netlist.Netlist, top string) (*Design, error) {
	tc, ok := nets.Cell(top)
	if !ok {
		return nil, fmt.Errorf("%w: no netlist cell %q", ErrBadDesign, top)
	}
	for _, in := range tc.InstanceNames() {
		inst := tc.Instances[in]
		if _, ok := lib.Macro(inst.Master); !ok {
			return nil, fmt.Errorf("%w: instance %q master %q has no macro", ErrBadDesign, in, inst.Master)
		}
	}
	return &Design{
		Name: name, Die: die, Lib: lib, Nets: nets, Top: top,
		Placements: make(map[string]Placement),
	}, nil
}

// TopCell returns the design's top netlist cell.
func (d *Design) TopCell() *netlist.Cell {
	c, _ := d.Nets.Cell(d.Top)
	return c
}

// PinPos returns the absolute position of an instance pin.
func (d *Design) PinPos(inst, pin string) (geom.Point, error) {
	c := d.TopCell()
	i, ok := c.Instances[inst]
	if !ok {
		return geom.Point{}, fmt.Errorf("%w: no instance %q", ErrBadDesign, inst)
	}
	m, _ := d.Lib.Macro(i.Master)
	p, ok := m.Pin(pin)
	if !ok {
		return geom.Point{}, fmt.Errorf("%w: macro %q has no pin %q", ErrBadDesign, i.Master, pin)
	}
	pl, ok := d.Placements[inst]
	if !ok {
		return geom.Point{}, fmt.Errorf("%w: instance %q unplaced", ErrBadDesign, inst)
	}
	tr := geom.Transform{Orient: pl.Orient, Offset: pl.Pos}
	return tr.Apply(p.Center()), nil
}

// InstanceRect returns the placed bounding box of an instance.
func (d *Design) InstanceRect(inst string) (geom.Rect, error) {
	c := d.TopCell()
	i, ok := c.Instances[inst]
	if !ok {
		return geom.Rect{}, fmt.Errorf("%w: no instance %q", ErrBadDesign, inst)
	}
	m, _ := d.Lib.Macro(i.Master)
	pl, ok := d.Placements[inst]
	if !ok {
		return geom.Rect{}, fmt.Errorf("%w: instance %q unplaced", ErrBadDesign, inst)
	}
	tr := geom.Transform{Orient: pl.Orient, Offset: pl.Pos}
	return tr.ApplyRect(geom.Rect{Max: m.Size}), nil
}

// CheckPlacement validates that all instances are placed, inside the die,
// non-overlapping, and in legal orientations.
func (d *Design) CheckPlacement() error {
	c := d.TopCell()
	var probs []string
	rects := make(map[string]geom.Rect)
	for _, in := range c.InstanceNames() {
		inst := c.Instances[in]
		m, _ := d.Lib.Macro(inst.Master)
		pl, ok := d.Placements[in]
		if !ok {
			probs = append(probs, fmt.Sprintf("instance %q unplaced", in))
			continue
		}
		if !m.OrientLegal(pl.Orient) {
			probs = append(probs, fmt.Sprintf("instance %q orientation %v illegal for macro %q", in, pl.Orient, m.Name))
		}
		r, _ := d.InstanceRect(in)
		if !d.Die.ContainsRect(r) {
			probs = append(probs, fmt.Sprintf("instance %q at %v outside die %v", in, r, d.Die))
		}
		rects[in] = r
	}
	names := make([]string, 0, len(rects))
	for n := range rects {
		names = append(names, n)
	}
	sort.Strings(names)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := rects[names[i]], rects[names[j]]
			if inter, ok := a.Intersect(b); ok && inter.Area() > 0 {
				probs = append(probs, fmt.Sprintf("instances %q and %q overlap", names[i], names[j]))
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("%w: %d problems (first: %s)", ErrBadDesign, len(probs), probs[0])
	}
	return nil
}

// HPWL computes the half-perimeter wirelength over all nets with at least
// two placed pins — the standard placement quality metric. It keeps one
// running bounding box per net; a net with one pin has an empty box, which
// adds nothing. Any pin whose position fails fails the sum.
func (d *Design) HPWL() (int, error) {
	c := d.TopCell()
	names := c.InstanceNames()
	// A chain design has about one net per instance.
	boxes := make(map[string]geom.Rect, len(names)+1)
	for _, in := range names {
		inst := c.Instances[in]
		for pin, net := range inst.Conns {
			p, err := d.PinPos(in, pin)
			if err != nil {
				return 0, err
			}
			at := geom.Rect{Min: p, Max: p}
			if box, ok := boxes[net]; ok {
				at = box.Union(at)
			}
			boxes[net] = at
		}
	}
	total := 0
	for _, box := range boxes {
		total += box.Dx() + box.Dy()
	}
	return total, nil
}

// Package workgen generates synthetic workloads — schematic databases,
// HDL corpora, physical designs and floorplans — sized and parameterized
// for the test suite, the examples and the EXPERIMENTS.md benchmarks. The
// paper evaluates nothing quantitatively, so these generators define the
// reproducible workloads our constructed experiments run on.
package workgen

import (
	"fmt"
	"math/rand"

	"cadinterop/internal/floorplan"
	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
	"cadinterop/internal/phys"
)

// PhysOptions sizes a generated physical design.
type PhysOptions struct {
	// Cells is the number of standard-cell instances.
	Cells int
	// Seed drives the connectivity shuffle.
	Seed int64
	// CriticalNets is how many nets receive width/spacing/shield rules.
	CriticalNets int
	// Keepouts is how many keep-out zones the floorplan declares.
	Keepouts int
}

// PhysTech returns the standard two-layer technology used by generated
// designs.
func PhysTech() phys.Tech {
	return phys.Tech{
		Name: "gen2l",
		Layers: []phys.Layer{
			{Name: "M1", Dir: phys.Horizontal, Pitch: 10, MinWidth: 4, MinSpace: 4},
			{Name: "M2", Dir: phys.Vertical, Pitch: 10, MinWidth: 4, MinSpace: 4},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
}

// PhysLibrary builds a macro library with two cells. NAND2's input pin is
// walled in by a routing blockage on its north side, so access derived from
// blockages disagrees with the access property — the Section 4 ambiguity
// made concrete.
func PhysLibrary() *phys.Library {
	lib := phys.NewLibrary(PhysTech())
	lib.AddMacro(&phys.Macro{
		Name: "BUFX1", Size: geom.Pt(40, 20), Site: "core",
		Pins: []*phys.Pin{
			{Name: "A", Dir: netlist.Input,
				Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 8, 4, 12)}},
				Access: phys.AccessWest | phys.AccessNorth,
				Conn:   map[phys.ConnType]bool{}},
			{Name: "Y", Dir: netlist.Output,
				Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}},
				Access: phys.AccessEast,
				Conn:   map[phys.ConnType]bool{phys.MultipleConnect: true}},
		},
	})
	lib.AddMacro(&phys.Macro{
		Name: "NAND2X1", Size: geom.Pt(40, 20), Site: "core",
		Pins: []*phys.Pin{
			{Name: "A", Dir: netlist.Input,
				Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 4, 4, 8)}},
				// The property claims north access is fine...
				Access: phys.AccessWest | phys.AccessNorth,
				Conn:   map[phys.ConnType]bool{phys.MustConnect: true}},
			{Name: "B", Dir: netlist.Input,
				Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 12, 4, 16)}},
				Access: phys.AccessWest,
				Conn:   map[phys.ConnType]bool{phys.EquivalentConnect: true}},
			{Name: "Y", Dir: netlist.Output,
				Shapes: []phys.Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}},
				Access: phys.AccessEast,
				Conn:   map[phys.ConnType]bool{phys.ConnectByAbutment: true}},
		},
		// ...but this blockage seals the north corridor above pin A.
		Blockages: []phys.Shape{{Layer: "M1", Rect: geom.R(0, 9, 8, 11)}},
	})
	return lib
}

// PhysDesign generates a placeable, routable design: a shuffled chain with
// random cross-links, on a die sized for ~40% utilization.
func PhysDesign(opts PhysOptions) (*phys.Design, *floorplan.Floorplan, error) {
	if opts.Cells < 2 {
		opts.Cells = 2
	}
	lib := PhysLibrary()
	rng := rand.New(rand.NewSource(opts.Seed))
	nl := netlist.New()
	for _, mn := range []string{"BUFX1", "NAND2X1"} {
		m, _ := lib.Macro(mn)
		c, err := nl.AddCell(mn)
		if err != nil {
			return nil, nil, err
		}
		c.Primitive = true
		for _, p := range m.Pins {
			c.AddPort(p.Name, p.Dir)
		}
	}
	top, err := nl.AddCell("chip")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < opts.Cells; i++ {
		name := fmt.Sprintf("u%04d", i)
		master := "BUFX1"
		if rng.Intn(3) == 0 {
			master = "NAND2X1"
		}
		top.AddInstance(name, master)
		top.Connect(name, "A", fmt.Sprintf("net%04d", i))
		top.Connect(name, "Y", fmt.Sprintf("net%04d", i+1))
		if master == "NAND2X1" {
			// Cross-link B input to a random earlier net.
			top.Connect(name, "B", fmt.Sprintf("net%04d", rng.Intn(i+1)))
		}
	}
	nl.Top = "chip"

	// Die sized for ~40% utilization in whole rows.
	cellArea := 40 * 20
	need := opts.Cells * cellArea * 5 / 2
	side := 100
	for side*side < need {
		side += 100
	}
	die := geom.R(0, 0, side, side)
	d, err := phys.NewDesign("chip", die, lib, nl, "chip")
	if err != nil {
		return nil, nil, err
	}

	fp := &floorplan.Floorplan{Name: "chip", Die: die}
	for i := 0; i < opts.CriticalNets; i++ {
		net := fmt.Sprintf("net%04d", 1+i*3%maxInt(opts.Cells-1, 1))
		fp.NetRules = append(fp.NetRules, floorplan.NetRule{
			Net:           net,
			WidthTracks:   2 + i%2,
			SpacingTracks: 1,
			Shield:        i%3 == 0,
		})
	}
	for i := 0; i < opts.Keepouts; i++ {
		x := side / 4 * (1 + i%2)
		y := side / 4 * (1 + (i/2)%2)
		fp.Keepouts = append(fp.Keepouts, floorplan.Keepout{
			Rect:   geom.R(x, y, x+side/10, y+side/10),
			Reason: fmt.Sprintf("analog%d", i),
		})
	}
	fp.Pins = append(fp.Pins,
		floorplan.PinConstraint{Pin: "net0000", Edge: floorplan.West, Offset: side / 3},
		floorplan.PinConstraint{Pin: fmt.Sprintf("net%04d", opts.Cells), Edge: floorplan.East, Offset: -1},
	)
	return d, fp, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

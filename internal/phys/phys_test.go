package phys

import (
	"errors"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/netlist"
)

// testTech builds a two-layer technology.
func testTech() Tech {
	return Tech{
		Name: "t2l",
		Layers: []Layer{
			{Name: "M1", Dir: Horizontal, Pitch: 10, MinWidth: 4, MinSpace: 4},
			{Name: "M2", Dir: Vertical, Pitch: 10, MinWidth: 4, MinSpace: 4},
		},
		SiteWidth: 10, SiteHeight: 20,
	}
}

// testMacro builds a 40x20 cell with pins A (west) and Y (east).
func testMacro(name string) *Macro {
	return &Macro{
		Name: name,
		Size: geom.Pt(40, 20),
		Site: "core",
		Pins: []*Pin{
			{Name: "A", Dir: netlist.Input,
				Shapes: []Shape{{Layer: "M1", Rect: geom.R(0, 8, 4, 12)}},
				Access: AccessWest, Conn: map[ConnType]bool{}},
			{Name: "Y", Dir: netlist.Output,
				Shapes: []Shape{{Layer: "M1", Rect: geom.R(36, 8, 40, 12)}},
				Access: AccessEast, Conn: map[ConnType]bool{MultipleConnect: true}},
		},
	}
}

// buildDesign places two cells joined Y->A on net "n1".
func buildDesign(t testing.TB) *Design {
	t.Helper()
	lib := NewLibrary(testTech())
	if err := lib.AddMacro(testMacro("BUFX1")); err != nil {
		t.Fatal(err)
	}
	nl := netlist.New()
	buf := mustCell(nl, "BUFX1")
	buf.Primitive = true
	buf.AddPort("A", netlist.Input)
	buf.AddPort("Y", netlist.Output)
	top := mustCell(nl, "chip")
	top.AddInstance("u1", "BUFX1")
	top.AddInstance("u2", "BUFX1")
	top.Connect("u1", "Y", "n1")
	top.Connect("u2", "A", "n1")
	top.Connect("u1", "A", "in")
	top.Connect("u2", "Y", "out")
	nl.Top = "chip"
	d, err := NewDesign("chip", geom.R(0, 0, 400, 200), lib, nl, "chip")
	if err != nil {
		t.Fatal(err)
	}
	d.Placements["u1"] = Placement{Pos: geom.Pt(0, 0)}
	d.Placements["u2"] = Placement{Pos: geom.Pt(100, 0)}
	return d
}

func TestLibraryValidate(t *testing.T) {
	lib := NewLibrary(testTech())
	if err := lib.AddMacro(testMacro("ok")); err != nil {
		t.Fatal(err)
	}
	if err := lib.Validate(); err != nil {
		t.Fatalf("valid library rejected: %v", err)
	}
	if err := lib.AddMacro(testMacro("ok")); !errors.Is(err, ErrBadLibrary) {
		t.Errorf("duplicate macro: %v", err)
	}
	// Pin outside boundary.
	bad := testMacro("bad")
	bad.Pins[0].Shapes[0].Rect = geom.R(-5, 0, 4, 4)
	lib.AddMacro(bad)
	if err := lib.Validate(); !errors.Is(err, ErrBadLibrary) {
		t.Errorf("out-of-bounds pin: %v", err)
	}
}

func TestLibraryValidateUnknownLayer(t *testing.T) {
	lib := NewLibrary(testTech())
	m := testMacro("m")
	m.Pins[0].Shapes[0].Layer = "M9"
	lib.AddMacro(m)
	if err := lib.Validate(); !errors.Is(err, ErrBadLibrary) {
		t.Errorf("unknown layer: %v", err)
	}
}

func TestAccessDirString(t *testing.T) {
	if AccessAll.String() != "NSEW" {
		t.Errorf("AccessAll = %q", AccessAll)
	}
	if (AccessNorth | AccessEast).String() != "NE" {
		t.Errorf("NE = %q", AccessNorth|AccessEast)
	}
	if AccessDir(0).String() != "none" {
		t.Errorf("zero = %q", AccessDir(0))
	}
}

func TestDeriveAccessFromBlockages(t *testing.T) {
	m := testMacro("m")
	// Pin A at the west edge, block the east corridor.
	m.Blockages = []Shape{{Layer: "M1", Rect: geom.R(10, 6, 14, 14)}}
	got := m.DeriveAccess(m.Pins[0])
	if got&AccessEast != 0 {
		t.Errorf("east should be blocked: %v", got)
	}
	if got&AccessWest == 0 || got&AccessNorth == 0 || got&AccessSouth == 0 {
		t.Errorf("other sides should be clear: %v", got)
	}
	// Blockage on another layer does not block.
	m.Blockages[0].Layer = "M2"
	if got := m.DeriveAccess(m.Pins[0]); got != AccessAll {
		t.Errorf("cross-layer blockage should not block: %v", got)
	}
	// No shapes: all access.
	if got := m.DeriveAccess(&Pin{Name: "ghost"}); got != AccessAll {
		t.Errorf("shapeless pin: %v", got)
	}
}

func TestOrientLegal(t *testing.T) {
	m := testMacro("m")
	if !m.OrientLegal(geom.MY90) {
		t.Error("empty list should allow all")
	}
	m.LegalOrients = []geom.Orientation{geom.R0, geom.MY}
	if !m.OrientLegal(geom.R0) || !m.OrientLegal(geom.MY) {
		t.Error("listed orients rejected")
	}
	if m.OrientLegal(geom.R90) {
		t.Error("unlisted orient accepted")
	}
}

func TestDesignPinPosAndRect(t *testing.T) {
	d := buildDesign(t)
	p, err := d.PinPos("u1", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if p != geom.Pt(38, 10) {
		t.Errorf("u1.Y = %v, want (38,10)", p)
	}
	r, err := d.InstanceRect("u2")
	if err != nil {
		t.Fatal(err)
	}
	if r != geom.R(100, 0, 140, 20) {
		t.Errorf("u2 rect = %v", r)
	}
	// Mirrored placement flips the pin.
	d.Placements["u1"] = Placement{Pos: geom.Pt(40, 0), Orient: geom.MY}
	p, _ = d.PinPos("u1", "Y")
	if p != geom.Pt(2, 10) { // MY(-38,10)+(40,0)
		t.Errorf("mirrored u1.Y = %v, want (2,10)", p)
	}
	if _, err := d.PinPos("nope", "Y"); !errors.Is(err, ErrBadDesign) {
		t.Errorf("bad instance: %v", err)
	}
	if _, err := d.PinPos("u1", "nope"); !errors.Is(err, ErrBadDesign) {
		t.Errorf("bad pin: %v", err)
	}
}

func TestCheckPlacement(t *testing.T) {
	d := buildDesign(t)
	if err := d.CheckPlacement(); err != nil {
		t.Fatalf("clean placement rejected: %v", err)
	}
	// Overlap.
	d.Placements["u2"] = Placement{Pos: geom.Pt(20, 0)}
	if err := d.CheckPlacement(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("overlap: %v", err)
	}
	// Outside die.
	d.Placements["u2"] = Placement{Pos: geom.Pt(390, 0)}
	if err := d.CheckPlacement(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("outside die: %v", err)
	}
	// Unplaced.
	delete(d.Placements, "u2")
	if err := d.CheckPlacement(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("unplaced: %v", err)
	}
	// Illegal orientation.
	d2 := buildDesign(t)
	d2.Lib.Macros["BUFX1"].LegalOrients = []geom.Orientation{geom.R0}
	d2.Placements["u2"] = Placement{Pos: geom.Pt(100, 0), Orient: geom.R90}
	if err := d2.CheckPlacement(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("illegal orient: %v", err)
	}
}

func TestHPWL(t *testing.T) {
	d := buildDesign(t)
	got, err := d.HPWL()
	if err != nil {
		t.Fatal(err)
	}
	// n1: u1.Y (38,10) to u2.A (102,10): dx=64, dy=0.
	if got != 64 {
		t.Errorf("HPWL = %d, want 64", got)
	}
	// A pin whose position fails fails the sum: an unplaced instance, and
	// a connection to a pin its macro lacks.
	delete(d.Placements, "u2")
	if _, err := d.HPWL(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("unplaced instance: HPWL error = %v, want ErrBadDesign", err)
	}
	d = buildDesign(t)
	d.TopCell().Connect("u2", "Z", "n1")
	if _, err := d.HPWL(); !errors.Is(err, ErrBadDesign) {
		t.Errorf("missing pin: HPWL error = %v, want ErrBadDesign", err)
	}
}

func TestNewDesignErrors(t *testing.T) {
	lib := NewLibrary(testTech())
	nl := netlist.New()
	if _, err := NewDesign("x", geom.R(0, 0, 10, 10), lib, nl, "ghost"); !errors.Is(err, ErrBadDesign) {
		t.Errorf("missing top: %v", err)
	}
	top := mustCell(nl, "top")
	top.AddInstance("u1", "NOMACRO")
	if _, err := NewDesign("x", geom.R(0, 0, 10, 10), lib, nl, "top"); !errors.Is(err, ErrBadDesign) {
		t.Errorf("missing macro: %v", err)
	}
}

func TestTechLayerLookup(t *testing.T) {
	tech := testTech()
	l, ok := tech.Layer("M2")
	if !ok || l.Dir != Vertical {
		t.Errorf("Layer(M2) = %+v %v", l, ok)
	}
	if _, ok := tech.Layer("M3"); ok {
		t.Error("found nonexistent layer")
	}
}

func TestConnTypeNames(t *testing.T) {
	if len(AllConnTypes()) != 4 {
		t.Error("AllConnTypes wrong length")
	}
	if MustConnect.String() != "must-connect" {
		t.Errorf("MustConnect = %q", MustConnect)
	}
}

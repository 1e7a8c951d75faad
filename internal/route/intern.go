package route

import "fmt"

// Cell identity. The fabric stores one int32 per cell instead of a net-name
// string: hot-path comparisons (usable, bfs, spacing) become integer
// compares and the grid itself is a flat machine-word array. The public API
// (Owner, Result.Segments, Audit) still speaks strings at the boundary;
// only the search core sees IDs.
//
// Encoding:
//
//	0                  — empty fabric ("")
//	1                  — blocked: keepout or out-of-bounds ("#")
//	idx<<2 | kind      — a cell of net #idx (idx >= 1), where kind is one of
//	                     the four per-net markers below
//
// Reserving 0 for empty and 1 for out-of-bounds/blocked (instead of
// overloading a user-visible string) fixes the old ambiguity where a net
// literally named "#" was indistinguishable from a keepout; names that
// collide with the marker bytes are now rejected at Route time.
const (
	cellEmpty   int32 = 0
	cellBlocked int32 = 1
)

// Per-net cell kinds, stored in the low two bits of a net-derived ID.
const (
	kindSignal  int32 = 0 // routed wire (decodes to the bare net name)
	kindPending int32 = 1 // pre-reserved pin landing, "?net"
	kindShield  int32 = 2 // grounded shield wire, "!net"
	kindHalo    int32 = 3 // clearance halo (empty space), "~net"
)

// isNetCell reports whether an ID belongs to some net (any kind).
func isNetCell(o int32) bool { return o >= 4 }

// cellKind extracts the marker kind of a net cell.
func cellKind(o int32) int32 { return o & 3 }

// cellNet maps any per-net marker to the net's signal ID.
func cellNet(o int32) int32 { return o &^ 3 }

// ownCell reports whether a cell is the net's own wire or its pending pin
// reservation.
func ownCell(o, sig int32) bool {
	return isNetCell(o) && cellNet(o) == sig && cellKind(o) <= kindPending
}

// foreignSignal reports whether a cell is another net's signal wire (not
// free, not blockage, not shield, not halo, not a pending pin, not our own).
func foreignSignal(o, sig int32) bool {
	return isNetCell(o) && cellKind(o) == kindSignal && o != sig
}

// spacingAggressor reports whether a cell violates a spacing window: a
// foreign signal wire or a foreign pending pin. Shields, halos and
// blockages are not aggressors.
func spacingAggressor(o, sig int32) bool {
	return isNetCell(o) && cellKind(o) <= kindPending && cellNet(o) != sig
}

func isShieldOf(o, sig int32) bool { return o == sig|kindShield }

// internTable maps net names to dense IDs for one Grid. The four decoded
// string forms per net are precomputed so Owner never allocates.
type internTable struct {
	ids  map[string]int32 // name -> net index (>= 1)
	strs [][4]string      // net index -> {name, "?"+name, "!"+name, "~"+name}
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]int32), strs: make([][4]string, 1)}
}

// intern returns the signal ID for a net name, adding it to the table on
// first sight.
func (t *internTable) intern(name string) int32 {
	if i, ok := t.ids[name]; ok {
		return i << 2
	}
	i := int32(len(t.strs))
	t.ids[name] = i
	t.strs = append(t.strs, [4]string{name, "?" + name, "!" + name, "~" + name})
	return i << 2
}

// grow pre-sizes the table for n more nets so steady-state interning never
// rehashes the map or reallocates the decode slab. Called with the final
// net count before pin reservation; a fresh table additionally swaps its
// map for one with the right bucket count.
func (t *internTable) grow(n int) {
	if n <= 0 {
		return
	}
	if need := len(t.strs) + n; cap(t.strs) < need {
		strs := make([][4]string, len(t.strs), need)
		copy(strs, t.strs)
		t.strs = strs
	}
	if len(t.ids) == 0 {
		t.ids = make(map[string]int32, n)
	}
}

// lookup returns the signal ID for a name already in the table.
func (t *internTable) lookup(name string) (int32, bool) {
	i, ok := t.ids[name]
	return i << 2, ok
}

// decode returns the string form of a cell ID.
func (t *internTable) decode(o int32) string {
	switch o {
	case cellEmpty:
		return ""
	case cellBlocked:
		return "#"
	}
	return t.strs[o>>2][o&3]
}

// reservedNetName reports whether a net name collides with the grid's
// reserved cell markers: the empty name, the blockage sentinel "#", and the
// per-net marker prefixes "?", "!", "~". Such names would make decoded
// owners ambiguous, so Route rejects them up front.
func reservedNetName(name string) bool {
	if name == "" {
		return true
	}
	switch name[0] {
	case '#', '?', '!', '~':
		return true
	}
	return false
}

// checkNetName returns a descriptive error for reserved net names.
func checkNetName(name string) error {
	if reservedNetName(name) {
		return fmt.Errorf("%w: net name %q collides with reserved grid markers (empty, #, ?, !, ~)", ErrRoute, name)
	}
	return nil
}

package route

import "fmt"

// Cell identity. The fabric stores one int32 per cell instead of a net-name
// string: hot-path comparisons (usable, bfs, spacing) become integer
// compares and the grid itself is a flat machine-word array. The public API
// (Owner, Audit, a failed net's reason) still speaks strings at the
// boundary; only the router's core sees IDs.
//
// Encoding:
//
//	0                  — empty fabric ("")
//	1                  — blocked: a keepout ("#")
//	2                  — the die's edge: the slab's frame (see Grid)
//	idx<<2 | kind      — a cell of net #idx (idx >= 1), where kind is one of
//	                     the four per-net markers below
//
// Reserving 0 for empty and 1 for blocked (instead of overloading a
// user-visible string) fixes the old ambiguity where a net literally named
// "#" was indistinguishable from a keepout; names that collide with the
// marker bytes are now rejected at Route time. The edge is blocked like a
// keepout, but it is never an aggressor and never decoded: every scan
// across a wire stops there, and Owner reads a cell off the die as "#".
const (
	cellEmpty   int32 = 0
	cellBlocked int32 = 1
	cellEdge    int32 = 2
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

// internTable numbers the nets of one Route: net index i >= 1 is
// names[i-1]. Every attempt's grid shares the table, which nothing writes
// once it is built.
type internTable struct {
	ids   map[string]int32 // name -> net index (>= 1)
	names []string         // net index - 1 -> name
}

// newInternTable numbers names from 1 in the order given, and keeps names.
func newInternTable(names []string) internTable {
	ids := make(map[string]int32, len(names))
	for i, n := range names {
		ids[n] = int32(i + 1)
	}
	return internTable{ids: ids, names: names}
}

// lookup returns the signal ID of a net, and false for a name the table
// does not hold.
func (t *internTable) lookup(name string) (int32, bool) {
	i, ok := t.ids[name]
	return i << 2, ok
}

// name returns the name of the net a net cell belongs to.
func (t *internTable) name(o int32) string {
	return t.names[o>>2-1]
}

// decode returns the string form of a cell ID. A marker's string is built
// on each call: only Owner decodes, and only tests call it.
func (t *internTable) decode(o int32) string {
	switch o {
	case cellEmpty:
		return ""
	case cellBlocked:
		return "#"
	}
	return [4]string{kindPending: "?", kindShield: "!", kindHalo: "~"}[cellKind(o)] + t.name(o)
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

package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
)

// FP builds a canonical options fingerprint: a sha256 over a stream of
// named, quoted fields. Call sites list exactly the fields that affect the
// tool's output — in a fixed order, with maps pre-sorted — and leave out
// everything that must not invalidate the cache (worker counts, metrics
// registries, trace recorders). Field names and %q quoting
// frame every value, so no two distinct field sequences can collide by
// concatenation, and a later schema change (adding a field) changes every
// fingerprint — which is the safe failure mode: stale entries miss.
type FP struct {
	h hash.Hash
}

// NewFP starts a fingerprint for one options struct; kind names the struct
// (e.g. "route.Options/v1") so different tools can never share entries even
// with coincidentally equal field streams. Bump the version suffix whenever
// a semantic field's meaning changes.
func NewFP(kind string) *FP {
	f := &FP{h: sha256.New()}
	fmt.Fprintf(f.h, "kind=%q\n", kind)
	return f
}

// Str adds a string field.
func (f *FP) Str(name, v string) *FP {
	fmt.Fprintf(f.h, "%s=%q\n", name, v)
	return f
}

// Int adds an integer field.
func (f *FP) Int(name string, v int) *FP {
	fmt.Fprintf(f.h, "%s=%d\n", name, v)
	return f
}

// Bool adds a boolean field.
func (f *FP) Bool(name string, v bool) *FP {
	fmt.Fprintf(f.h, "%s=%t\n", name, v)
	return f
}

// Float adds a float field in shortest round-trippable form.
func (f *FP) Float(name string, v float64) *FP {
	fmt.Fprintf(f.h, "%s=%g\n", name, v)
	return f
}

// Strs adds a string-slice field, order-preserving (sort first if the
// slice's order is not semantic).
func (f *FP) Strs(name string, vs []string) *FP {
	fmt.Fprintf(f.h, "%s=[%d]\n", name, len(vs))
	for _, v := range vs {
		fmt.Fprintf(f.h, "  %q\n", v)
	}
	return f
}

// StrMap adds a map[string]string field in sorted key order.
func (f *FP) StrMap(name string, m map[string]string) *FP {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f.h, "%s={%d}\n", name, len(keys))
	for _, k := range keys {
		fmt.Fprintf(f.h, "  %q=%q\n", k, m[k])
	}
	return f
}

// BoolSet adds a map[string]bool as the sorted list of true keys — the
// canonical form of a set, so a key explicitly stored false hashes equal to
// an absent key.
func (f *FP) BoolSet(name string, m map[string]bool) *FP {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return f.Strs(name, keys)
}

// Sum finalizes the fingerprint as lowercase hex.
func (f *FP) Sum() string {
	return hex.EncodeToString(f.h.Sum(nil))
}

package route

import (
	"sort"

	"cadinterop/internal/geom"
	"cadinterop/internal/memo"
)

// Fingerprint canonicalizes the options that affect routed output into a
// memo cache key component (DESIGN.md §5h). Two Options values that route
// any design identically must hash equal, so the fields that cannot affect
// routing are omitted: Workers (deprecated and ignored) and Metrics
// (observability only). Pitch is normalized the way Route normalizes it,
// keepouts are sorted (blocking is an idempotent set operation), and
// SkipNets hashes as the set of true keys.
func (o Options) Fingerprint() string {
	f := memo.NewFP("route.Options/v1")
	pitch := o.Pitch
	if pitch <= 0 {
		pitch = 10
	}
	f.Int("pitch", pitch).Bool("plainbfs", o.PlainBFS)

	nets := make([]string, 0, len(o.Rules))
	for n := range o.Rules {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	f.Int("rules", len(nets))
	for _, n := range nets {
		r := o.Rules[n]
		f.Str("rule.net", n).
			Int("rule.width", r.WidthTracks).
			Int("rule.spacing", r.SpacingTracks).
			Bool("rule.shield", r.Shield).
			Int("rule.coupled", r.MaxCoupledLen)
	}

	kos := append([]geom.Rect(nil), o.Keepouts...)
	sort.Slice(kos, func(i, j int) bool {
		a, b := kos[i], kos[j]
		if a.Min.X != b.Min.X {
			return a.Min.X < b.Min.X
		}
		if a.Min.Y != b.Min.Y {
			return a.Min.Y < b.Min.Y
		}
		if a.Max.X != b.Max.X {
			return a.Max.X < b.Max.X
		}
		return a.Max.Y < b.Max.Y
	})
	f.Int("keepouts", len(kos))
	for _, ko := range kos {
		f.Int("ko.minx", ko.Min.X).Int("ko.miny", ko.Min.Y).
			Int("ko.maxx", ko.Max.X).Int("ko.maxy", ko.Max.Y)
	}

	f.BoolSet("skipnets", o.SkipNets)
	return f.Sum()
}

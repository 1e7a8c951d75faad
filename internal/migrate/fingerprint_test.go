package migrate

import (
	"testing"

	"cadinterop/internal/schematic"
)

// TestMigrateOptionsFingerprint pins the cache-key contract for
// migrate.Options: order-insensitive fields hash equal under reordering,
// and every semantic flip changes the fingerprint (forcing a miss).
func TestMigrateOptionsFingerprint(t *testing.T) {
	_, libs, maps := exarFixture(t)
	base := func() Options { return stdOptions(libs, maps) }

	cases := []struct {
		name     string
		mutate   func(*Options)
		wantSame bool
	}{
		{"identical", func(o *Options) {}, true},
		{"target lib order irrelevant", func(o *Options) {
			libs2 := make([]*schematic.Library, len(o.TargetLibs))
			for i, l := range o.TargetLibs {
				libs2[len(libs2)-1-i] = l
			}
			o.TargetLibs = libs2
		}, true},
		{"standard props are a set", func(o *Options) {
			sp := append([]string(nil), o.To.StandardProps...)
			for i, j := 0, len(sp)-1; i < j; i, j = i+1, j-1 {
				sp[i], sp[j] = sp[j], sp[i]
			}
			o.To.StandardProps = sp
		}, true},
		{"global map entry", func(o *Options) {
			o.GlobalMap = map[string]string{"VDD": "vcc!"}
		}, false},
		{"prop rule order is semantic", func(o *Options) {
			pr := append([]PropRule(nil), o.PropRules...)
			pr[0], pr[1] = pr[1], pr[0]
			o.PropRules = pr
		}, false},
		{"symbol map offset", func(o *Options) {
			sm := append([]SymbolMap(nil), o.Symbols...)
			sm[0].Offset.X++
			o.Symbols = sm
		}, false},
		{"pin spacing", func(o *Options) { o.To.PinSpacing++ }, false},
		{"bus syntax", func(o *Options) { o.To.Bus.ExplicitOnly = !o.To.Bus.ExplicitOnly }, false},
		{"keep unmapped", func(o *Options) { o.KeepUnmapped = true }, false},
		{"skip verify", func(o *Options) { o.SkipVerify = true }, false},
		{"round trip gate", func(o *Options) { o.VerifyRoundTrip = true }, false},
		{"ablation flag", func(o *Options) { o.DisableBusXlate = true }, false},
		{"callback script", func(o *Options) {
			cb := append([]Callback(nil), o.Callbacks...)
			cb[0].Script += " ; tweaked"
			o.Callbacks = cb
		}, false},
	}

	ref := base().Fingerprint()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.mutate(&o)
			got := o.Fingerprint()
			if tc.wantSame && got != ref {
				t.Errorf("fingerprint changed; want equal to base")
			}
			if !tc.wantSame && got == ref {
				t.Errorf("fingerprint unchanged; want a miss")
			}
		})
	}
}

package exchange_test

import (
	"bytes"
	"strings"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/workgen"
)

// TestStreamWindowHostileString: a bad string literal whose text reads
// like a repairable parse error ("unterminated list") must not make the
// scanner refill its window in search of more input. The damaged record
// is quarantined like any other bad string: the window stays within two
// read chunks, and the diagnostics are those of the same damage with
// plain text. The scanner used to match repairable errors by message, so
// this record pulled the rest of the 1.95 MB file into the window.
func TestStreamWindowHostileString(t *testing.T) {
	var buf bytes.Buffer
	if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: 20000, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	clean := buf.String()
	const record = "(net n0000010)"
	if !strings.Contains(clean, record) {
		t.Fatalf("generated design has no %s record", record)
	}
	read := func(text string) (string, int) {
		src := strings.Replace(clean, record, `(net n0000010 (property crit "`+text+`"))`, 1)
		_, diags, stats, err := exchange.ReadStreamStats(strings.NewReader(src), exchange.ReadOptions{Mode: diag.Lenient})
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		return diag.Render(diags), stats.MaxWindow
	}
	plain, plainWindow := read(`\q`)
	hostile, hostileWindow := read(`\q unterminated list`)
	for _, w := range []int{plainWindow, hostileWindow} {
		if w > 64<<10 {
			t.Errorf("MaxWindow = %d bytes, want <= 64 KB (plain text: %d)", w, plainWindow)
		}
	}
	if want := strings.Replace(plain, `"\q"`, `"\q unterminated list"`, 1); hostile != want {
		t.Errorf("diagnostics differ from the plain-text damage:\n got %s\nwant %s", hostile, want)
	}
	if !strings.Contains(hostile, `bad string "\q unterminated list"`) {
		t.Errorf("no bad-string diagnostic for the damaged record:\n%s", hostile)
	}
}

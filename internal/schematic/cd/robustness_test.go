package cd

import (
	"bytes"
	"fmt"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/diag/diagtest"
)

// cdCandidate is the robustness contract for the Cadence reader: under both
// modes, arbitrary bytes either parse, recover, or error — never a panic,
// and never an accepted design that fails Validate. The input is also fed
// to ReadStream one byte at a time, so every sweep crosses the scanner's
// window refills; any difference from ReadBytes fails t.
func cdCandidate(t testing.TB) diagtest.ParseFn {
	return func(data []byte) error {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			opts := ReadOptions{Mode: mode, Source: "sweep"}
			d, diags, err := ReadBytes(data, opts)
			sd, sdiags, serr := ReadStream(iotest.OneByteReader(bytes.NewReader(data)), opts)
			assertSameRead(t, fmt.Sprintf("%v, ReadStream one byte at a time vs ReadBytes, input %q", mode, data),
				d, diags, err, sd, sdiags, serr)
			if err != nil {
				continue
			}
			if d != nil {
				if verr := d.Validate(); verr != nil {
					return diagtest.ValidateViolation(verr)
				}
			}
		}
		return nil
	}
}

func cdSweepSource(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleDesign(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPrefixSweep(t *testing.T) {
	diagtest.PrefixSweep(t, cdSweepSource(t), 1, cdCandidate(t))
}

func TestMutationSweep(t *testing.T) {
	diagtest.MutationSweep(t, cdSweepSource(t), 0xc1, 400, cdCandidate(t))
}

func TestTruncateMidline(t *testing.T) {
	diagtest.TruncateMidline(t, cdSweepSource(t), cdCandidate(t))
}

func FuzzParse(f *testing.F) {
	f.Add(cdSweepSource(f))
	f.Add([]byte("(design d (grid 10))"))
	f.Add([]byte("(design d (grid 10) (cell c (page 1)))"))
	f.Add([]byte("(design"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := cdCandidate(t)(data); err != nil && diagtest.IsViolation(err) {
			t.Fatal(err)
		}
	})
}

// TestLenientQuarantine: an instance referencing a symbol the file never
// defines is cascade-dropped in lenient mode (with a diagnostic) so the
// partial design still validates; strict mode refuses the file.
func TestLenientQuarantine(t *testing.T) {
	src := bytes.Replace(cdSweepSource(t), []byte("(of cdlib nand2 symbol)"), []byte("(of cdlib ghost symbol)"), 1)
	d, diags, err := ReadBytes(src, ReadOptions{Mode: diag.Lenient, Source: "bad.cd"})
	if err != nil {
		t.Fatalf("lenient read aborted: %v", err)
	}
	if diag.Count(diags, diag.Error) == 0 {
		t.Fatal("dangling instance produced no diagnostics")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("lenient partial design invalid: %v", err)
	}
	if _, _, err := ReadBytes(src, ReadOptions{Source: "bad.cd"}); err == nil {
		t.Fatal("strict mode accepted dangling instance")
	}
}

package exchange

import (
	"bytes"
	"fmt"
	"testing"
	"testing/iotest"

	"cadinterop/internal/diag"
	"cadinterop/internal/diag/diagtest"
)

// exchangeCandidate is the robustness contract for the exchange reader:
// arbitrary bytes either parse, recover, or error under both modes — never
// a panic, and never an accepted netlist that fails Validate. The input is
// also fed to ReadStream one byte at a time, so every sweep crosses the
// scanner's window refills; any difference from ReadBytes fails t.
func exchangeCandidate(t testing.TB) diagtest.ParseFn {
	return func(data []byte) error {
		for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
			opts := ReadOptions{Mode: mode, Source: "sweep"}
			nl, diags, err := ReadBytes(data, opts)
			sn, sd, serr := ReadStream(iotest.OneByteReader(bytes.NewReader(data)), opts)
			assertSameRead(t, fmt.Sprintf("%v, ReadStream one byte at a time vs ReadBytes, input %q", mode, data),
				nl, diags, err, sn, sd, serr)
			if err != nil {
				continue
			}
			if nl != nil {
				if verr := nl.Validate(); verr != nil {
					return diagtest.ValidateViolation(verr)
				}
			}
		}
		return nil
	}
}

// sweepSource writes the package's own awkward sample netlist, the richest
// valid input we have (renames, attributes, globals), with the integrity
// trailer so sweeps also cross the trailer parser.
func sweepSource(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sample(t), WriteOptions{NameLimit: 12, VHDLSafe: true, Trailer: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPrefixSweep(t *testing.T) {
	diagtest.PrefixSweep(t, sweepSource(t), 1, exchangeCandidate(t))
}

func TestMutationSweep(t *testing.T) {
	diagtest.MutationSweep(t, sweepSource(t), 0xe1, 400, exchangeCandidate(t))
}

func TestTruncateMidline(t *testing.T) {
	diagtest.TruncateMidline(t, sweepSource(t), exchangeCandidate(t))
}

func FuzzParse(f *testing.F) {
	f.Add(sweepSource(f))
	f.Add([]byte("(edif (cell INV (port A input) (port Y output)))"))
	f.Add([]byte("(edif (cell top (net n1) (instance u0 INV (connect A n1))))"))
	f.Add([]byte("(edif (cell c (attr k v)))\n; integrity sha256:00 cells=1 ports=0 nets=0 insts=0 conns=0 attrs=0"))
	f.Add([]byte("(edif"))
	f.Add([]byte(";\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := exchangeCandidate(t)(data); err != nil && diagtest.IsViolation(err) {
			t.Fatal(err)
		}
	})
}

package experiments

import (
	"bytes"
	"io"
	"reflect"

	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/workgen"
)

// E16Scale measures the mechanism this repo relies on past ~10⁵ nets: the
// streaming interchange reader, with a bounded parse window instead of a
// whole-file buffer. It pipes workgen's streaming emitter straight into
// the reader — the file never exists in memory — and reports the
// parse-window high-water mark against the input size, plus an equality
// verdict against the same design read from memory (ReadBytes) where the
// materialized file is cheap enough to hold. Every number is a count,
// size or ratio — no timing — so the report is byte-identical at any
// worker count; ns/net lives in the benchmark suite
// (BenchmarkExchangeScale).
func E16Scale() (*Report, error) {
	r := &Report{ID: "E16", Title: "scale: streaming interchange window (seed 16)"}

	r.addf("streaming interchange: emitter piped to reader, no materialized file")
	r.addf("%8s %10s %8s %9s %7s %9s %10s", "nets", "bytes", "window", "win/input", "diags", "manifest", "vs-buffer")
	for _, n := range []int{1_000, 10_000, 100_000} {
		opts := workgen.ScaleOptions{Nets: n, Seed: 16}
		pr, pw := io.Pipe()
		infoc := make(chan workgen.ScaleInfo, 1)
		go func() {
			info, err := workgen.ScaleExchange(pw, opts)
			pw.CloseWithError(err)
			infoc <- info
		}()
		nl, diags, stats, err := exchange.ReadStreamStats(pr, exchange.ReadOptions{RequireTrailer: true})
		info := <-infoc
		if err != nil {
			return nil, err
		}
		st := nl.Stats()
		manifest := "match"
		if st.Nets != info.Nets || st.Instances != info.Insts || st.Pins != info.Conns {
			manifest = "MISMATCH"
		}
		// The in-memory read needs the whole file in memory — run the
		// cross-check at the sizes where that is cheap; the byte-identity
		// of emitter and writer plus the trailer checksum cover the rest.
		verdict := "(skipped)"
		if n <= 10_000 {
			var buf bytes.Buffer
			if _, err := workgen.ScaleExchange(&buf, opts); err != nil {
				return nil, err
			}
			bnl, bdiags, berr := exchange.ReadBytes(buf.Bytes(), exchange.ReadOptions{RequireTrailer: true})
			if berr != nil {
				return nil, berr
			}
			verdict = "identical"
			if !reflect.DeepEqual(bnl, nl) || !reflect.DeepEqual(bdiags, diags) {
				verdict = "DIVERGED"
			}
		}
		r.addf("%8d %10d %8d %8.2f%% %7d %9s %10s",
			n, info.Bytes, stats.MaxWindow,
			100*float64(stats.MaxWindow)/float64(info.Bytes),
			diag.Count(diags, diag.Error), manifest, verdict)
	}
	return r, nil
}

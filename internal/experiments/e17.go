package experiments

import (
	"bytes"
	"context"

	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/serve"
)

// E17Memoization measures content-addressed translation memoization: it
// sends the same /v1/translate request twice through one cache and
// reports tool executions, hits and the rendered output's size per pass —
// the warm pass must execute zero tools while writing the cold pass's
// bytes. Every number is a count or ratio — no timing — so the report is
// byte-identical at any worker count; warm-rerun time lives in the
// benchmark suite (BenchmarkFlowCacheWarm).
func E17Memoization() (*Report, error) {
	r := &Report{ID: "E17", Title: "memoization: warm-cache flow reruns"}

	r.addf("flow memoization: identical backplane fan-out, cold then warm")
	r.addf("%6s %11s %6s %8s %9s %10s", "pass", "tool_execs", "hits", "hitrate", "bytes", "vs-cold")
	req := serve.TranslateRequest{Cells: 24, Seed: 17, Jobs: 2}
	cache := memo.New(nil)
	var cold []byte
	for _, pass := range []string{"cold", "warm"} {
		rec := obs.New(nil)
		var out bytes.Buffer
		if err := serve.Translate(context.Background(), &out, req, rec, cache); err != nil {
			return nil, err
		}
		verdict := "(baseline)"
		if pass == "warm" {
			verdict = "identical"
			if !bytes.Equal(out.Bytes(), cold) {
				verdict = "DIVERGED"
			}
		} else {
			cold = out.Bytes()
		}
		execs := rec.Metrics().Counter("backplane.tool_execs").Value()
		hits := cache.Hits() // cumulative across passes
		if pass == "cold" && hits != 0 {
			verdict = "DIVERGED"
		}
		r.addf("%6s %11d %6d %7.0f%% %9d %10s",
			pass, execs, hits, 100*cache.HitRate(), out.Len(), verdict)
	}
	return r, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// request is one call to an interopd endpoint. body holds exactly one of
// serve.TranslateRequest, CheckRequest, MigrateRequest or FlowRequest: it
// is what the daemon decodes, and what the oracle and the traced run call
// the serve entry point with in process.
type request struct{ body any }

func (r request) endpoint() string {
	switch r.body.(type) {
	case serve.TranslateRequest:
		return "translate"
	case serve.CheckRequest:
		return "check"
	case serve.MigrateRequest:
		return "migrate"
	case serve.FlowRequest:
		return "flow"
	}
	panic(fmt.Sprintf("interopbench: request body %T", r.body))
}

func (r request) json() []byte {
	b, err := json.Marshal(r.body)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// key identifies a request by content, for de-duplicating oracle work.
func (r request) key() string { return r.endpoint() + " " + string(r.json()) }

// serial returns the request pinned to one worker. Output is
// byte-identical at every worker count; the traced run uses it so the
// serial layer decomposition can account for the engine's time.
func (r request) serial() request {
	switch b := r.body.(type) {
	case serve.TranslateRequest:
		b.Jobs = 1
		return request{b}
	case serve.CheckRequest:
		b.Jobs = 1
		return request{b}
	}
	return r
}

// call runs the request through the serve entry point the daemon's
// handler for its endpoint runs, with the same defaults, and renders the
// result the way the handler does. cache nil means uncached. For /v1/flow
// it also returns the recorder serve.Flow hands back.
func call(ctx context.Context, r request, cache *memo.Cache) (serve.Response, *obs.Recorder) {
	var (
		buf bytes.Buffer
		rec *obs.Recorder
		err error
	)
	switch b := r.body.(type) {
	case serve.TranslateRequest:
		err = serve.Translate(ctx, &buf, b.WithDefaults(), nil, cache)
	case serve.CheckRequest:
		err = serve.Check(ctx, &buf, b, cache)
	case serve.MigrateRequest:
		err = serve.Migrate(ctx, &buf, &buf, b.WithDefaults(), cache)
	case serve.FlowRequest:
		rec, err = serve.Flow(ctx, &buf, b.WithDefaults(), true)
	}
	resp := serve.Response{Output: buf.String()}
	if err != nil {
		resp.Error, resp.Exit = err.Error(), 1
	}
	return resp, rec
}

// sizes scales every workload's inputs. full is the benchmark; the tests
// run the same code on tiny sizes.
type sizes struct {
	cells  int     // translate: placed cells per design
	nets   int     // check: nets per interchange file
	pool   int     // check-parse: distinct clean files
	gen    int     // migrate: generated schematic instances
	blocks int     // flow: workflow blocks
	rate   float64 // mixed-open: arrivals per second
	// warmupCap and traceCap, when positive, cap each workload's warm-up
	// requests and traced requests.
	warmupCap, traceCap int
}

// designs is the size of translate-cold's fixed design set, and
// lenientFiles the number of damaged files check-parse's lenient requests
// vet.
const (
	designs      = 16
	lenientFiles = 4
)

var full = sizes{cells: 32, nets: 5000, pool: 16, gen: 100, blocks: 16, rate: 150}

// workload is one traffic mix against one daemon configuration.
type workload struct {
	name string
	// cache selects the daemon's memo cache: "" off, "mem" (-cache) or
	// "dir" (-cache-dir under the run's work directory).
	cache string
	// open is true for the open loop: seeded Poisson arrivals at
	// sizes.rate, sent by two clients so that a late request can overlap
	// the next. Otherwise one client runs a closed loop, so every request
	// is served alone.
	open bool
	// traced is how many of the first timed requests the traced run
	// replays.
	traced int
	// build writes the workload's input files under dir and returns its
	// requests; the same seed gives the same files and requests.
	build func(dir string, seed int64, sz sizes) (*plan, error)
}

// plan is a workload's request stream for one seed.
type plan struct {
	// warm is sent during set-up only to warm the daemon. Where the daemon
	// caches, none of its requests recur in the timed phase.
	warm []request
	// prime is sent during set-up to fill the daemon's cache with the
	// requests the timed phase repeats.
	prime []request
	// timed returns the i-th timed request.
	timed func(i int) request
}

var workloads = []workload{
	// A fixed set of designs, the same for every seed, replayed in a
	// seeded order to a daemon without a cache: every request routes from
	// scratch, and neither a run's cost nor its set-up's hinges on which
	// designs a seed happened to draw (routing time varies across designs
	// with a coefficient of variation of about 40%).
	{
		name:   "translate-cold",
		traced: 24,
		build: func(dir string, seed int64, sz sizes) (*plan, error) {
			design := func(k int) request {
				return request{serve.TranslateRequest{Cells: sz.cells, Seed: derive(0, 'T', k)}}
			}
			return &plan{warm: list(10, design), timed: func(i int) request {
				return design(rand.New(rand.NewSource(int64(mix(seed, 't', i/designs)))).Perm(designs)[i%designs])
			}}, nil
		},
	},
	// Freshly written interchange files, no cache: exchange parsing does
	// the work, as in the interop -check gate. The clean pairs are the
	// pool's files two by two; one request in eight instead vets a clean
	// file beside a damaged copy the lenient reader must salvage. Each
	// request vets its two files one after the other (jobs 1): fanned out
	// over both CPUs, with two clients, throughput spread twice as far from
	// run to run (12.8% against 6.1% over eight seeds) and the daemon's
	// resident set grew by half.
	{
		name:   "check-parse",
		traced: 32,
		build: func(dir string, seed int64, sz sizes) (*plan, error) {
			pool, bad, err := writeExchangePool(dir, seed, sz, sz.pool, lenientFiles)
			if err != nil {
				return nil, err
			}
			ck := func(stream uint64) func(i int) request {
				return func(i int) request {
					u := mix(seed, stream, i)
					if i%8 == 7 {
						k := int(u % uint64(len(bad)))
						return request{serve.CheckRequest{Files: []string{pool[len(pool)-1-k], bad[k]}, Lenient: true, Jobs: 1}}
					}
					k := int(u % uint64(len(pool)/2))
					return request{serve.CheckRequest{Files: []string{pool[2*k], pool[2*k+1]}, Jobs: 1}}
				}
			}
			return &plan{warm: list(10, ck('w')), timed: ck('t')}, nil
		},
	},
	// Eight requests primed in set-up and then repeated: every request
	// hits the on-disk cache, so key derivation, the cache and HTTP do
	// the work.
	{
		name:   "warm-repeat",
		cache:  "dir",
		traced: 64,
		build: func(dir string, seed int64, sz sizes) (*plan, error) {
			pool, _, err := writeExchangePool(dir, seed, sz, 8, 0)
			if err != nil {
				return nil, err
			}
			// Hits take translate < check < migrate time; a quarter, a half
			// and a quarter of the requests put the median in the middle
			// of the check hits and the 90th percentile among migrations.
			// The two designs are translate-cold's first two, the same for
			// every seed, so priming costs the same whatever the seed.
			var distinct []request
			for k := 0; k < 4; k++ {
				distinct = append(distinct, request{serve.CheckRequest{Files: []string{pool[2*k], pool[2*k+1]}}})
			}
			for k := 0; k < 2; k++ {
				distinct = append(distinct, request{serve.TranslateRequest{Cells: sz.cells, Seed: derive(0, 'T', k)}})
			}
			for k := 0; k < 2; k++ {
				distinct = append(distinct, request{serve.MigrateRequest{Gen: sz.gen, Seed: derive(seed, 'g', k)}})
			}
			return &plan{prime: distinct, timed: func(i int) request {
				return distinct[mix(seed, 'r', i)%uint64(len(distinct))]
			}}, nil
		},
	},
	// Independent clients arriving on a schedule: admission, the workflow
	// engine and migration do the work. Every fifth request is a migration
	// and half the flows inject faults: 80% flows keep the median among
	// flows and the 90th percentile among migrations. The mix is fixed
	// rather than drawn: a migration costs about fifteen flows, so a drawn
	// mix of the 200 warm-up requests would vary their cost from seed to
	// seed by about 11% (one standard deviation).
	{
		name:   "mixed-open",
		cache:  "mem",
		open:   true,
		traced: 200,
		build: func(dir string, seed int64, sz sizes) (*plan, error) {
			mixed := func(stream uint64) func(i int) request {
				return func(i int) request {
					u := mix(seed, stream, i)
					if i%5 == 0 {
						return request{serve.MigrateRequest{Gen: sz.gen, Seed: derive(seed, stream+256, i)}}
					}
					fr := serve.FlowRequest{Blocks: sz.blocks}
					if (i/5)%2 == 0 {
						fr.Faults = fmt.Sprintf("%d:0.2", u%1000)
						fr.Retries = 3
					}
					return request{fr}
				}
			}
			return &plan{warm: list(200, mixed('w')), timed: mixed('t')}, nil
		},
	},
}

// crossSection returns one seeded request for each endpoint reqs never
// calls, writing the check request's files under dir. The traced run
// decomposes them beside the workload's own requests so that every
// per-layer metric is measured on every run; on a workload whose traffic
// never reaches a layer, that layer's metrics describe these requests.
func crossSection(dir string, seed int64, sz sizes, reqs []request) ([]request, error) {
	has := map[string]bool{}
	for _, r := range reqs {
		has[r.endpoint()] = true
	}
	var out []request
	if !has["translate"] {
		out = append(out, request{serve.TranslateRequest{Cells: sz.cells, Seed: derive(seed, 'c', 0)}})
	}
	if !has["check"] {
		pool, _, err := writeExchangePool(dir, seed, sz, 2, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, request{serve.CheckRequest{Files: pool, Jobs: 1}})
	}
	if !has["migrate"] {
		out = append(out, request{serve.MigrateRequest{Gen: sz.gen, Seed: derive(seed, 'c', 1)}})
	}
	if !has["flow"] {
		out = append(out, request{serve.FlowRequest{Blocks: sz.blocks,
			Faults: fmt.Sprintf("%d:0.2", mix(seed, 'c', 2)%1000), Retries: 3}})
	}
	return out, nil
}

// arrivalsFor draws the open-loop schedule: exponential gaps at rate per
// second, until d has elapsed.
func arrivalsFor(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(mix(seed, 'a', 0) >> 1)))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func list(n int, f func(i int) request) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// mix is a splitmix64 hash of (seed, stream, i): every derived input is a
// pure function of the benchmark seed.
func mix(seed int64, stream uint64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<40 ^ uint64(i)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive is a positive design seed; engines read seed 0 as "default".
func derive(seed int64, stream uint64, i int) int64 {
	return int64(mix(seed, stream, i)>>2) + 1
}

// writeExchangePool writes n clean interchange files of sz.nets nets and
// nbad damaged copies of the first files, returning their absolute paths.
// A damaged copy has its integrity trailer cut and three net records
// emptied, which a lenient read salvages with diagnostics.
func writeExchangePool(dir string, seed int64, sz sizes, n, nbad int) (pool, bad []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	var clean [][]byte
	for k := 0; k < n; k++ {
		var buf bytes.Buffer
		if _, err := workgen.ScaleExchange(&buf, workgen.ScaleOptions{Nets: sz.nets, Seed: derive(seed, 'x', k)}); err != nil {
			return nil, nil, err
		}
		p := filepath.Join(dir, fmt.Sprintf("pool-%02d.edf", k))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			return nil, nil, err
		}
		pool = append(pool, p)
		clean = append(clean, buf.Bytes())
	}
	for k := 0; k < nbad; k++ {
		p := filepath.Join(dir, fmt.Sprintf("bad-%02d.edf", k))
		if err := os.WriteFile(p, damage(clean[k%n], mix(seed, 'd', k)), 0o644); err != nil {
			return nil, nil, err
		}
		bad = append(bad, p)
	}
	return pool, bad, nil
}

// damage drops the trailer line and empties three seeded net records.
func damage(data []byte, u uint64) []byte {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	lines = lines[:len(lines)-1]
	var nets []int
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "(net ") {
			nets = append(nets, i)
		}
	}
	for k := 0; k < 3 && len(nets) > 0; k++ {
		lines[nets[(u>>(8*k))%uint64(len(nets))]] = "      (net)"
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

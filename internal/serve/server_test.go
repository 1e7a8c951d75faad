package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON returns the HTTP status and decoded body (or raw text for
// non-200s, where the server writes plain errors).
func postJSON(t *testing.T, url, body string) (int, Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var r Response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("bad response body %q: %v", data, err)
		}
	}
	return resp.StatusCode, r, string(data)
}

// TestDaemonCLIEquivalence is the daemon's core bar: for every endpoint,
// the daemon's output field equals the bytes the CLI entry point renders
// for the same request — under concurrent identical requests, at more
// than one admission concurrency, and with a shared in-memory cache, so
// the identical requests share one key and hits must equal the CLI too.
func TestDaemonCLIEquivalence(t *testing.T) {
	type endpoint struct {
		path   string
		body   string
		direct func(ctx context.Context, w io.Writer) error
	}
	endpoints := []endpoint{
		{"/v1/translate", `{"cells":12,"seed":7,"jobs":2}`, func(ctx context.Context, w io.Writer) error {
			return Translate(ctx, w, TranslateRequest{Cells: 12, Seed: 7, Jobs: 2}.WithDefaults(), nil, nil)
		}},
		{"/v1/migrate", `{"gen":15}`, func(ctx context.Context, w io.Writer) error {
			return Migrate(ctx, w, w, MigrateRequest{Gen: 15}.WithDefaults(), nil)
		}},
		{"/v1/flow", `{"blocks":2,"events":true}`, func(ctx context.Context, w io.Writer) error {
			_, err := Flow(ctx, w, FlowRequest{Blocks: 2, Events: true}.WithDefaults(), false)
			return err
		}},
	}
	for _, cfg := range []Config{{Workers: 1, Queue: 64}, {Workers: 4, Queue: 64}, {Workers: 4, Queue: 64, CacheMem: true}} {
		name := fmt.Sprintf("workers=%d", cfg.Workers)
		if cfg.CacheMem {
			name += ",cache=mem"
		}
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, cfg)
			for _, ep := range endpoints {
				var want bytes.Buffer
				if err := ep.direct(context.Background(), &want); err != nil {
					t.Fatalf("%s direct: %v", ep.path, err)
				}
				const N = 8
				outs := make([]string, N)
				var wg sync.WaitGroup
				for i := 0; i < N; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(ep.body))
						if err != nil {
							outs[i] = "transport error: " + err.Error()
							return
						}
						defer resp.Body.Close()
						var r Response
						if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
							outs[i] = "decode error: " + err.Error()
							return
						}
						if r.Exit != 0 {
							outs[i] = "exit " + r.Error
							return
						}
						outs[i] = r.Output
					}(i)
				}
				wg.Wait()
				for i, out := range outs {
					if out != want.String() {
						t.Errorf("%s request %d differs from CLI output:\n--- daemon\n%s--- cli\n%s",
							ep.path, i, out, want.String())
						break
					}
				}
			}
			if hits := s.Metrics().Counter("memo.hits").Value(); cfg.CacheMem && hits == 0 {
				t.Error("no memo.hits after eight identical requests per endpoint")
			}
		})
	}
}

// TestCheckEquivalence runs /v1/check against real files and diffs the
// response against the direct entry point (what interop -check prints).
func TestCheckEquivalence(t *testing.T) {
	dir := t.TempDir()
	// One clean migration output as a parseable .cd file, one broken file.
	var design bytes.Buffer
	if err := Migrate(context.Background(), io.Discard, &design, MigrateRequest{Gen: 8}.WithDefaults(), nil); err != nil {
		t.Fatal(err)
	}
	good := writeFile(t, dir, "good.cd", design.String())
	bad := writeFile(t, dir, "bad.cd", "not a design\n")
	req := CheckRequest{Files: []string{good, bad}, Lenient: true}
	// The bogus file aborts even in lenient mode, so the CLI exits
	// non-zero — the daemon must mirror that as exit 1 with the same
	// message, along with the identical diagnostics output.
	var want bytes.Buffer
	cliErr := Check(context.Background(), &want, req, nil)
	if cliErr == nil {
		t.Fatal("expected the bogus file to abort")
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(req)
	status, r, raw := postJSON(t, ts.URL+"/v1/check", string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if r.Output != want.String() {
		t.Errorf("daemon check differs:\n--- daemon\n%s--- cli\n%s", r.Output, want.String())
	}
	if r.Exit != 1 || r.Error != cliErr.Error() {
		t.Errorf("daemon exit %d %q, CLI error %q", r.Exit, r.Error, cliErr)
	}
}

// TestCheckIgnoresStreamField: /v1/check bodies once carried a "stream"
// field that picked between two readers. Old clients may still send it;
// the answer must be byte for byte the one the same body gets without it,
// including on a lexically broken file, where the two readers differed.
func TestCheckIgnoresStreamField(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.edf", `(edif e (cell top (interface) (contents (net good1) (net "bad\q") (net good2))) (design top))`)
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, lenient := range []bool{false, true} {
		body := fmt.Sprintf(`{"files":[%q],"lenient":%t`, bad, lenient)
		wantStatus, _, want := postJSON(t, ts.URL+"/v1/check", body+"}")
		status, _, got := postJSON(t, ts.URL+"/v1/check", body+`,"stream":true}`)
		if status != wantStatus || got != want {
			t.Errorf("lenient=%v: with \"stream\" got %d %s\nwithout it %d %s", lenient, status, got, wantStatus, want)
		}
	}
}

func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOverloadShedsCleanly holds the server's only worker slot so every
// request must be refused, then verifies refusals are clean 503s with
// Retry-After and that service resumes untouched after release.
func TestOverloadShedsCleanly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 0})
	if err := s.Gate().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const N = 6
	statuses := make([]int, N)
	retryAfter := make([]string, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(`{"blocks":2}`))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d, want 503", i, st)
		}
		if retryAfter[i] == "" {
			t.Errorf("request %d: no Retry-After", i)
		}
	}
	s.Gate().Release()

	// The slot is free again: identical request now serves, byte-identical
	// to the direct run — overload never corrupted shared state.
	status, r, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":2}`)
	if status != http.StatusOK {
		t.Fatalf("post-overload status %d: %s", status, raw)
	}
	var want bytes.Buffer
	if _, err := Flow(context.Background(), &want, FlowRequest{Blocks: 2}.WithDefaults(), false); err != nil {
		t.Fatal(err)
	}
	if r.Output != want.String() {
		t.Error("post-overload response differs from direct run")
	}
}

// TestOverloadAccountingReconciles hammers a tiny admission budget and
// then cross-checks three independent records of the same traffic: the
// HTTP statuses the clients saw, the serve.* counters, and the request
// log. They must agree exactly — no request double-counted or dropped.
func TestOverloadAccountingReconciles(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 1})
	const N = 24
	var (
		mu           sync.Mutex
		served, shed int
		outputs      = map[string]int{}
	)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(`{"blocks":2}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				served++
				var r Response
				if err := json.Unmarshal(data, &r); err != nil || r.Exit != 0 {
					t.Errorf("served request bad body: %v %q", err, data)
					return
				}
				outputs[r.Output]++
			case http.StatusServiceUnavailable:
				shed++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if served+shed != N {
		t.Fatalf("served %d + shed %d != %d", served, shed, N)
	}
	if served == 0 {
		t.Fatal("nothing served")
	}
	// Every served response carried the same complete output: shedding
	// never truncated or interleaved an in-flight response.
	if len(outputs) != 1 {
		t.Errorf("served outputs not identical: %d variants", len(outputs))
	}
	// Counters agree with client-observed outcomes...
	reg := s.Metrics()
	if got := reg.Counter("serve.served").Value(); got != int64(served) {
		t.Errorf("serve.served = %d, clients saw %d", got, served)
	}
	if got := reg.Counter("serve.shed").Value(); got != int64(shed) {
		t.Errorf("serve.shed = %d, clients saw %d", got, shed)
	}
	if got := reg.Counter("serve.requests").Value(); got != N {
		t.Errorf("serve.requests = %d, want %d", got, N)
	}
	// ...and with the request log, entry by entry.
	var logServed, logShed int
	for _, e := range s.Requests() {
		switch e.Status {
		case http.StatusOK:
			logServed++
		case http.StatusServiceUnavailable:
			logShed++
		default:
			t.Errorf("log entry %d has status %d", e.ID, e.Status)
		}
	}
	if logServed != served || logShed != shed {
		t.Errorf("request log served=%d shed=%d, clients saw served=%d shed=%d",
			logServed, logShed, served, shed)
	}
	// The gate itself settled: nothing in flight, nothing queued.
	if s.Gate().InFlight() != 0 || s.Gate().Waiting() != 0 {
		t.Errorf("gate not drained: inflight=%d waiting=%d", s.Gate().InFlight(), s.Gate().Waiting())
	}
}

// TestQueuedDeadlineMapsTo504 fills the only slot, then sends a request
// whose deadline expires while it waits in the admission queue.
func TestQueuedDeadlineMapsTo504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	if err := s.Gate().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Gate().Release()
	status, _, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":2,"deadline_ms":40}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, raw)
	}
	if got := s.Metrics().Counter("serve.flow.timeout").Value(); got != 1 {
		t.Errorf("serve.flow.timeout = %d", got)
	}
}

// TestClientCannotLengthenDeadline holds the only slot of a server whose
// operator deadline is 50ms and sends a request asking for ten minutes:
// it must still time out in the queue at the operator's deadline.
func TestClientCannotLengthenDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Deadline: 50 * time.Millisecond})
	if err := s.Gate().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Gate().Release()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(`{"blocks":2,"deadline_ms":600000}`))
	if err != nil {
		t.Fatalf("no answer within the client's timeout: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestRequestDeadline(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name     string
		clientMS int64
		def      time.Duration
		want     time.Duration
	}{
		{"neither", 0, 0, 0},
		{"operator only", 0, 50 * ms, 50 * ms},
		{"client only", 600000, 0, 600000 * ms},
		{"client shortens", 40, 50 * ms, 40 * ms},
		{"client cannot lengthen", 600000, 50 * ms, 50 * ms},
		{"equal", 50, 50 * ms, 50 * ms},
		{"negative is unset", -5, 50 * ms, 50 * ms},
		{"operator's fraction of a millisecond", 51, 50*ms + 500*time.Microsecond, 50*ms + 500*time.Microsecond},
		{"huge client value", math.MaxInt64, time.Second, time.Second},
	}
	for _, c := range cases {
		if got := requestDeadline(c.clientMS, c.def); got != c.want {
			t.Errorf("%s: requestDeadline(%d, %v) = %v, want %v", c.name, c.clientMS, c.def, got, c.want)
		}
	}
}

// TestBadMethodAndBadJSON: a GET is refused with 405 before it is
// counted; a body that does not decode gets 400 and is counted as
// serve.invalid, so the counters still reconcile with the request log.
func TestBadMethodAndBadJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/flow")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", resp.StatusCode)
	}
	status, _, _ := postJSON(t, ts.URL+"/v1/flow", `{"blocks":`)
	if status != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", status)
	}
	if status, resp, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":1}`); status != http.StatusOK || resp.Exit != 0 {
		t.Fatalf("request after the bad body: status %d, body %s", status, raw)
	}
	reg := s.Metrics()
	if got := reg.Counter("serve.flow.invalid").Value(); got != 1 {
		t.Errorf("serve.flow.invalid = %d, want 1", got)
	}
	// Every counted request ends in exactly one outcome, and in one line
	// of the request log.
	var outcomes int64
	for _, kind := range []string{"served", "shed", "timeout", "oversize", "invalid"} {
		outcomes += reg.Counter("serve." + kind).Value()
	}
	if got := reg.Counter("serve.requests").Value(); got != outcomes {
		t.Errorf("serve.requests = %d, but the outcome counters sum to %d", got, outcomes)
	}
	r, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	log, _ := io.ReadAll(r.Body)
	if got, lines := reg.Counter("serve.requests").Value(), strings.Count(string(log), "\n"); got != int64(lines) {
		t.Errorf("serve.requests = %d, but /debug/requests lists %d", got, lines)
	}
}

// TestOversizeBodyRefused: a body over maxBodyBytes is answered 413,
// counted and logged like the other refusals, and the server keeps
// serving.
func TestOversizeBodyRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	big := `{"files":["` + strings.Repeat("a", maxBodyBytes) + `"]}`
	if status, _, raw := postJSON(t, ts.URL+"/v1/check", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, body %q", status, raw)
	}
	if status, resp, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":1}`); status != http.StatusOK || resp.Exit != 0 {
		t.Fatalf("request after the refusal: status %d, body %s", status, raw)
	}
	reg := s.Metrics()
	if got := reg.Counter("serve.check.oversize").Value(); got != 1 {
		t.Errorf("serve.check.oversize = %d, want 1", got)
	}
	r, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	log, _ := io.ReadAll(r.Body)
	if string(log) != "1 check 413\n2 flow 200\n" {
		t.Errorf("request log %q, want the refusal and the flow", log)
	}
	if got, lines := reg.Counter("serve.requests").Value(), strings.Count(string(log), "\n"); got != int64(lines) {
		t.Errorf("serve.requests = %d, but /debug/requests lists %d", got, lines)
	}
}

// TestFlowNegativeBlocks: a negative block count is a request error, not
// a handler panic. A panicking handler skipped finishReq after the
// request was counted, so the counters and the request log disagreed.
func TestFlowNegativeBlocks(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	status, resp, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":-3}`)
	if status != http.StatusOK || resp.Exit != 1 || !strings.Contains(resp.Error, "blocks must not be negative") {
		t.Fatalf("status %d, body %s", status, raw)
	}
	reg := s.Metrics()
	if req, served := reg.Counter("serve.requests").Value(), reg.Counter("serve.served").Value(); req != served {
		t.Errorf("serve.requests %d != serve.served %d", req, served)
	}
	r, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if log, _ := io.ReadAll(r.Body); string(log) != "1 flow 200\n" {
		t.Errorf("request log %q, want the flow entry", log)
	}
}

func TestDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheMem: true})
	if status, _, raw := postJSON(t, ts.URL+"/v1/flow", `{"blocks":2}`); status != http.StatusOK {
		t.Fatalf("flow: %d %s", status, raw)
	}
	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return string(data)
	}
	metrics := get("/debug/metrics")
	for _, want := range []string{"serve.requests 1", "serve.flow.served 1", "par.gate.admitted 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	trace := get("/debug/trace")
	if !strings.Contains(trace, "== request 1 flow ==") || !strings.Contains(trace, "flowrun [") {
		t.Errorf("trace:\n%s", trace)
	}
	reqs := get("/debug/requests")
	if !strings.Contains(reqs, "1 flow 200") {
		t.Errorf("requests log:\n%s", reqs)
	}
	if !strings.Contains(get("/healthz"), "ok") {
		t.Error("healthz not ok")
	}
}

// TestSharedCacheAcrossRequests: the second identical translate request
// hits the memo cache the first one populated.
func TestSharedCacheAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheMem: true})
	body := `{"cells":10,"seed":3}`
	_, first, raw := postJSON(t, ts.URL+"/v1/translate", body)
	if first.Exit != 0 {
		t.Fatalf("first: %s %s", first.Error, raw)
	}
	_, second, _ := postJSON(t, ts.URL+"/v1/translate", body)
	if second.Output != first.Output {
		t.Error("warm response differs from cold")
	}
	if hits := s.Metrics().Counter("memo.hits").Value(); hits == 0 {
		t.Error("no memo.hits after identical repeat request")
	}
}

// Long-poll guard: the equivalence and overload tests together already
// exercise concurrency; this keeps a bound on how long the package waits
// for a wedged gate in CI.
func TestGateAcquireRespectsWallClock(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Gate().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Gate().Release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Gate().Acquire(ctx); err == nil {
		t.Fatal("acquire succeeded with the slot held")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("acquire ignored the context deadline")
	}
}

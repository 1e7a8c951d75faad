package cadinterop

// On-disk golden cases: the bytes the workbench stores — interchange
// files with the integrity trailer, a disk cache entry, a flow journal
// and a request-log journal. The writers must reproduce each committed
// file (renderDisk, through TestGolden), and the readers must accept the
// committed files as they stand (checkDiskReaders): a stored cache
// directory or journal from an earlier build must keep working.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadinterop/internal/exchange"
	"cadinterop/internal/memo"
	"cadinterop/internal/netlist"
	"cadinterop/internal/serve"
	"cadinterop/internal/workgen"
)

// diskScale is the design behind the interchange cases.
var diskScale = workgen.ScaleOptions{Nets: 40, Seed: 7}

// diskExchangeCases are the interchange writes, keyed by file name.
var diskExchangeCases = []struct {
	file string
	opts exchange.WriteOptions
}{
	{"scale40-seed7-hints.edf", exchange.WriteOptions{Trailer: true, Hints: true}},
	{"scale40-seed7-vhdl12.edf", exchange.WriteOptions{NameLimit: 12, VHDLSafe: true, Trailer: true}},
}

// diskMemoKey and diskMemoPayload are the cache entry case. The payload
// holds a line that looks like the entry trailer and has no final
// newline, so the reader must find the real trailer by its position.
var (
	diskMemoKey = memo.Key{
		Content: "golden-content",
		Tool:    "golden",
		Options: memo.NewFP("golden/v1").Str("case", "trailer-in-payload").Sum(),
	}
	diskMemoPayload = []byte("first line\n; integrity sha256:" + strings.Repeat("0", 64) + " bytes=3\nlast line, no newline")
)

// diskFlowReq is the journaled flow case: faulted and retried, so its
// journal crosses attempts, backoff and rework.
func diskFlowReq(journalFile string, resume bool) serve.FlowRequest {
	return serve.FlowRequest{
		Blocks: 2, Store: "versioned", Events: true,
		Faults: "7:0.3", Retries: 3,
		Journal: journalFile, Resume: resume,
	}.WithDefaults()
}

// diskRequests are the request-log case's three requests: a served flow,
// an engine error and a refused body.
var diskRequests = []struct{ path, body string }{
	{"/v1/flow", `{"blocks":1}`},
	{"/v1/translate", `{"tool":"nope"}`},
	{"/v1/migrate", `{`},
}

// renderDisk adds the on-disk cases to out, keyed by their path under
// goldenDir.
func renderDisk(t *testing.T, out map[string]string) {
	t.Helper()
	nl := workgen.ScaleNetlist(diskScale)
	for _, c := range diskExchangeCases {
		var buf bytes.Buffer
		if err := exchange.Write(&buf, nl, c.opts); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		out[filepath.Join("disk", c.file)] = buf.String()
	}
	var scale bytes.Buffer
	if _, err := workgen.ScaleExchange(&scale, diskScale); err != nil {
		t.Fatal(err)
	}
	if want := out[filepath.Join("disk", diskExchangeCases[0].file)]; scale.String() != want {
		t.Errorf("ScaleExchange differs from exchange.Write: %s", firstDiff(want, scale.String()))
	}

	dir := t.TempDir()
	cache, err := memo.NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(diskMemoKey, diskMemoPayload)
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir holds %v (%v), want one entry", ents, err)
	}
	out[filepath.Join("disk", "memo", ents[0].Name())] = readFile(t, filepath.Join(dir, ents[0].Name()))

	wal := filepath.Join(t.TempDir(), "flow.wal")
	var stdout bytes.Buffer
	if _, err := serve.Flow(context.Background(), &stdout, diskFlowReq(wal, false), false); err != nil {
		t.Fatal(err)
	}
	out[filepath.Join("disk", "flow.wal")] = readFile(t, wal)
	out[filepath.Join("disk", "flow.stdout")] = stdout.String()

	reqlog := filepath.Join(t.TempDir(), "requests.wal")
	s := newLogServer(t, reqlog)
	for _, r := range diskRequests {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
	}
	out[filepath.Join("disk", "requests.txt")] = debugRequests(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out[filepath.Join("disk", "requests.wal")] = readFile(t, reqlog)
}

// checkDiskReaders feeds the committed on-disk files to the readers.
func checkDiskReaders(t *testing.T) {
	golden := func(name string) []byte {
		return []byte(readFile(t, filepath.Join(goldenDir, "disk", name)))
	}

	want := workgen.ScaleNetlist(diskScale)
	for _, c := range diskExchangeCases {
		got, _, err := exchange.ReadBytes(golden(c.file), exchange.ReadOptions{Source: c.file, RequireTrailer: true})
		if err != nil {
			t.Errorf("%s: guarded read: %v", c.file, err)
			continue
		}
		if diffs := netlist.Compare(want, got, netlist.CompareOptions{CompareAttrs: true}); len(diffs) > 0 {
			t.Errorf("%s: read back with %d diffs, first: %s", c.file, len(diffs), diffs[0])
		}
	}

	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join(goldenDir, "disk", "memo"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		copyFile(t, filepath.Join(goldenDir, "disk", "memo", e.Name()), filepath.Join(dir, e.Name()))
	}
	cache, err := memo.NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := cache.Get(diskMemoKey, nil); !ok || !bytes.Equal(got, diskMemoPayload) {
		t.Errorf("committed cache entry: Get = %q, %v; want the payload", got, ok)
	}
	if cache.Misses() != 0 {
		t.Errorf("committed cache entry: %d misses, want 0", cache.Misses())
	}

	// The whole journal resumes to the reference stdout and stays as it
	// is; a torn half of it resumes to the same stdout and converges to
	// the whole journal.
	wal := golden("flow.wal")
	for _, cut := range []int{len(wal), len(wal) / 2} {
		path := filepath.Join(t.TempDir(), "flow.wal")
		if err := os.WriteFile(path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		if _, err := serve.Flow(context.Background(), &stdout, diskFlowReq(path, true), false); err != nil {
			t.Errorf("flow.wal cut at %d: resume: %v", cut, err)
			continue
		}
		if want := string(golden("flow.stdout")); stdout.String() != want {
			t.Errorf("flow.wal cut at %d: resumed stdout differs: %s", cut, firstDiff(want, stdout.String()))
		}
		if got := readFile(t, path); got != string(wal) {
			t.Errorf("flow.wal cut at %d: resumed journal differs: %s", cut, firstDiff(string(wal), got))
		}
	}

	reqlog := filepath.Join(t.TempDir(), "requests.wal")
	if err := os.WriteFile(reqlog, golden("requests.wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newLogServer(t, reqlog)
	if got, want := debugRequests(s), string(golden("requests.txt")); got != want {
		t.Errorf("restart on requests.wal: /debug/requests differs: %s", firstDiff(want, got))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// newLogServer starts a server whose request log is journaled at path.
func newLogServer(t *testing.T, path string) *serve.Server {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 1, RequestLog: path})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// debugRequests renders the server's /debug/requests body.
func debugRequests(s *serve.Server) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	return rec.Body.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	if err := os.WriteFile(to, []byte(readFile(t, from)), 0o644); err != nil {
		t.Fatal(err)
	}
}

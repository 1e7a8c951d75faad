package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cadinterop/internal/journal"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/par"
)

// Config sizes one Server.
type Config struct {
	// Workers is the global worker budget: at most this many requests
	// execute engine work at once (0 = GOMAXPROCS).
	Workers int
	// Queue bounds the admission wait queue. -1 means one queued request
	// per worker slot; 0 sheds the moment every slot is busy.
	Queue int
	// Deadline is the default per-request wall-clock deadline (0 = none);
	// a request's deadline_ms field may shorten it but never lengthen it.
	Deadline time.Duration
	// CacheMem / CacheDir select the shared memo cache every request
	// consults: in-memory, persistent under a directory, or (neither) off.
	CacheMem bool
	CacheDir string
	// Traces is how many recent per-request traces /debug/trace retains
	// (0 = 32).
	Traces int
	// LogSize bounds the request log /debug/requests serves (0 = 1024).
	LogSize int
	// RequestLog, when non-empty, persists the request log to this
	// journal file (append-only, integrity-framed, fsync'd per record)
	// and replays it on startup, so a restarted daemon still answers
	// "what did I serve". "" keeps the log in memory only.
	RequestLog string
}

// Response is the JSON body of every /v1 endpoint: the exact bytes the
// corresponding CLI would print to stdout, the message it would print to
// stderr, and its exit status.
type Response struct {
	Output string `json:"output"`
	Error  string `json:"error,omitempty"`
	Exit   int    `json:"exit"`
}

// RequestLog is one completed (or refused) request in the server's
// bounded log: id in admission order, short endpoint name, HTTP status.
type RequestLog struct {
	ID       int64  `json:"id"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
}

// Server is the long-lived interop service: four engine endpoints
// (/v1/translate, /v1/check, /v1/migrate, /v1/flow), debug introspection
// (/debug/metrics, /debug/trace, /debug/requests), and /healthz. Every
// request passes the admission gate before touching an engine; requests
// the gate refuses are answered 503 + Retry-After with no work started,
// so overload can never corrupt the shared cache or the registries.
type Server struct {
	cfg   Config
	gate  *par.Gate
	reg   *obs.Registry
	cache *memo.Cache
	mux   *http.ServeMux

	mu     sync.Mutex
	nextID int64
	traces []traceEntry
	log    []RequestLog
	// jmu serializes request completion: it is held across ID assignment
	// and the journal append so the journal's record order matches ID
	// order, while mu — which /debug readers and keepTrace take — is only
	// held for the in-memory updates and never across a per-record fsync.
	// Lock order: jmu before mu, never the reverse.
	jmu sync.Mutex
	// reqlog, when non-nil, is the durable request journal: every
	// finished request is appended (under jmu) before the in-memory log
	// moves on, and startup replays it (see Config.RequestLog).
	reqlog *journal.Writer
}

type traceEntry struct {
	id  int64
	ep  string
	rec *obs.Recorder
}

// New builds a Server: one registry for server-lifetime metrics (request
// outcomes, gate accounting, and the shared cache's hit/miss counters all
// land there), one admission gate, one memo cache shared by every
// request.
func New(cfg Config) (*Server, error) {
	if cfg.Traces <= 0 {
		cfg.Traces = 32
	}
	if cfg.LogSize <= 0 {
		cfg.LogSize = 1024
	}
	reg := obs.NewRegistry()
	var cache *memo.Cache
	if cfg.CacheDir != "" {
		var err error
		if cache, err = memo.NewDir(cfg.CacheDir, reg); err != nil {
			return nil, err
		}
	} else if cfg.CacheMem {
		cache = memo.New(reg)
	}
	s := &Server{
		cfg:   cfg,
		gate:  par.NewGate(cfg.Workers, cfg.Queue, reg),
		reg:   reg,
		cache: cache,
	}
	if cfg.RequestLog != "" {
		recs, w, err := journal.OpenFile(cfg.RequestLog)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			var e RequestLog
			if err := json.Unmarshal(rec.Payload, &e); err != nil {
				w.Close()
				return nil, fmt.Errorf("request log %q record %d: %w", cfg.RequestLog, rec.Seq, err)
			}
			s.log = append(s.log, e)
			if e.ID > s.nextID {
				s.nextID = e.ID
			}
		}
		if len(s.log) > cfg.LogSize {
			s.log = s.log[len(s.log)-cfg.LogSize:]
		}
		s.reqlog = w
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/translate", post(s, "translate",
		func(ctx context.Context, w *bytes.Buffer, req TranslateRequest) (*obs.Recorder, error) {
			rec := obs.New(nil)
			root := rec.Start(0, "serve.translate")
			err := Translate(ctx, w, req.WithDefaults(), rec, s.cache)
			rec.End(root)
			return rec, err
		}))
	s.mux.HandleFunc("/v1/check", post(s, "check",
		func(ctx context.Context, w *bytes.Buffer, req CheckRequest) (*obs.Recorder, error) {
			rec := obs.New(nil)
			root := rec.Start(0, "serve.check")
			rec.AttrInt(root, "files", int64(len(req.Files)))
			err := Check(ctx, w, req, s.cache)
			rec.End(root)
			return rec, err
		}))
	s.mux.HandleFunc("/v1/migrate", post(s, "migrate",
		func(ctx context.Context, w *bytes.Buffer, req MigrateRequest) (*obs.Recorder, error) {
			// in, lib and map name server paths, and each CALLBACK line of
			// a map names one more, whose a/L then runs with no step or
			// depth budget. Refuse before Migrate can open any of them.
			if req.In != "" || req.Lib != "" || req.Map != "" {
				return nil, errors.New("in, lib, and map are not accepted over HTTP; send gen, or run schemig -in/-lib/-map on the daemon host instead")
			}
			rec := obs.New(nil)
			root := rec.Start(0, "serve.migrate")
			err := Migrate(ctx, w, w, req.WithDefaults(), s.cache)
			rec.End(root)
			return rec, err
		}))
	s.mux.HandleFunc("/v1/flow", post(s, "flow",
		func(ctx context.Context, w *bytes.Buffer, req FlowRequest) (*obs.Recorder, error) {
			// Run journaling is an operator concern, never a client one: a
			// remote body naming a journal path would make the daemon
			// open/create files of the client's choosing, and journal_crash
			// arms a deliberate os.Exit(137) — a one-request daemon kill.
			// Refuse before Flow can touch either.
			if req.Journal != "" || req.Resume || req.JournalCrash != 0 {
				return nil, errors.New("journal, resume, and journal_crash are not accepted over HTTP; run flowrun -journal/-resume on the daemon host instead")
			}
			return Flow(ctx, w, req.WithDefaults(), true)
		}))
	s.mux.HandleFunc("/debug/metrics", s.debugMetrics)
	s.mux.HandleFunc("/debug/trace", s.debugTrace)
	s.mux.HandleFunc("/debug/requests", s.debugRequests)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Gate exposes the admission gate (operational introspection and the
// overload tests, which hold its slots to force deterministic shedding).
func (s *Server) Gate() *par.Gate { return s.gate }

// Metrics exposes the server-lifetime registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Cache exposes the shared memo cache (nil when caching is off).
func (s *Server) Cache() *memo.Cache { return s.cache }

// Requests snapshots the request log, oldest first.
func (s *Server) Requests() []RequestLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RequestLog(nil), s.log...)
}

// maxBodyBytes bounds one /v1 request body, which holds a few scalar
// fields and, for /v1/check, a list of paths. A larger body gets 413.
const maxBodyBytes = 1 << 20

// deadlined is implemented by every request struct: the per-request
// deadline in milliseconds (0 = the server's deadline), which may only
// shorten the server's deadline.
type deadlined interface{ deadlineMS() int64 }

// post adapts one engine closure into an admission-gated HTTP handler.
// The closure renders the CLI-identical output into its buffer and
// returns the request's recorder for /debug/trace.
func post[R deadlined](s *Server, ep string, run func(context.Context, *bytes.Buffer, R) (*obs.Recorder, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.count(ep, "requests")
		var req R
		if r.ContentLength != 0 {
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
				status, msg, kind := http.StatusBadRequest, "bad request: "+err.Error(), "invalid"
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					status, msg, kind = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes), "oversize"
				}
				s.count(ep, kind)
				http.Error(w, msg, status)
				s.finishReq(ep, status)
				return
			}
		}
		ctx := r.Context()
		if d := requestDeadline(req.deadlineMS(), s.cfg.Deadline); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		// Admission: a slot, a bounded wait, or a clean refusal. Nothing
		// below this line runs for a shed request.
		if err := s.gate.Acquire(ctx); err != nil {
			if errors.Is(err, par.ErrShed) {
				w.Header().Set("Retry-After", s.retryAfter())
				http.Error(w, "over budget: request shed, retry later", http.StatusServiceUnavailable)
				s.count(ep, "shed")
				s.finishReq(ep, http.StatusServiceUnavailable)
			} else {
				http.Error(w, "deadline expired while queued for admission", http.StatusGatewayTimeout)
				s.count(ep, "timeout")
				s.finishReq(ep, http.StatusGatewayTimeout)
			}
			return
		}
		defer s.gate.Release()
		var buf bytes.Buffer
		rec, err := run(ctx, &buf, req)
		rec.Close()
		s.keepTrace(ep, rec)
		if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			http.Error(w, "deadline exceeded at an engine stage boundary", http.StatusGatewayTimeout)
			s.count(ep, "timeout")
			s.finishReq(ep, http.StatusGatewayTimeout)
			return
		}
		resp := Response{Output: buf.String()}
		if err != nil {
			resp.Error = err.Error()
			resp.Exit = 1
			s.count(ep, "errors")
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
		s.count(ep, "served")
		s.finishReq(ep, http.StatusOK)
	}
}

// retryAfter derives the shed response's Retry-After seconds from the
// current overload depth: one second per full worker-budget's worth of
// work already admitted or queued ahead, so clients back off
// proportionally instead of stampeding back in lockstep one second
// later regardless of how deep the backlog is.
func (s *Server) retryAfter() string {
	workers := s.gate.Workers()
	if workers < 1 {
		workers = 1
	}
	depth := s.gate.InFlight() + s.gate.Waiting()
	return strconv.Itoa(1 + depth/workers)
}

// requestDeadline resolves the effective wall-clock deadline: the
// smaller of the client's deadline_ms and the server's default, so a
// client may shorten the operator's deadline but never lengthen it. With
// no default, the client's value stands. The comparison is in whole
// milliseconds first, so a huge deadline_ms cannot overflow past the
// default.
func requestDeadline(overrideMS int64, def time.Duration) time.Duration {
	if overrideMS <= 0 {
		return def
	}
	if def > 0 && overrideMS > int64(def/time.Millisecond) {
		return def
	}
	return time.Duration(overrideMS) * time.Millisecond
}

// count bumps the endpoint-scoped and server-global counters for one
// outcome kind (requests, served, shed, timeout, errors, oversize,
// invalid). Every counted request ends in exactly one of served, shed,
// timeout, oversize and invalid; errors is a subset of served.
func (s *Server) count(ep, kind string) {
	s.reg.Counter("serve." + kind).Inc()
	s.reg.Counter("serve." + ep + "." + kind).Inc()
}

// finishReq appends one entry to the bounded request log, journaling it
// durably first when a request journal is configured. A journal write
// failure must never fail the request being served — it is counted
// (serve.reqlog.errors) and the in-memory log continues. Only jmu is
// held across the journal append and its fsync; mu guards the in-memory
// structures alone, so /debug readers never wait on the disk.
func (s *Server) finishReq(ep string, status int) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	s.nextID++
	e := RequestLog{ID: s.nextID, Endpoint: ep, Status: status}
	s.mu.Unlock()
	if s.reqlog != nil {
		payload, err := json.Marshal(e)
		if err == nil {
			err = s.reqlog.Append(payload)
		}
		if err != nil {
			s.reg.Counter("serve.reqlog.errors").Inc()
		}
	}
	s.mu.Lock()
	s.log = append(s.log, e)
	if len(s.log) > s.cfg.LogSize {
		s.log = s.log[len(s.log)-s.cfg.LogSize:]
	}
	s.mu.Unlock()
}

// Close releases server-held resources (the request journal). Safe to
// call once after the listener has drained.
func (s *Server) Close() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.reqlog == nil {
		return nil
	}
	err := s.reqlog.Close()
	s.reqlog = nil
	return err
}

// keepTrace retains one request's recorder in the /debug/trace ring.
func (s *Server) keepTrace(ep string, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = append(s.traces, traceEntry{id: s.nextID + 1, ep: ep, rec: rec})
	if len(s.traces) > s.cfg.Traces {
		s.traces = s.traces[len(s.traces)-s.cfg.Traces:]
	}
}

// debugMetrics renders the server-lifetime registry in the canonical
// text metrics format: request outcomes, gate accounting, memo hit/miss.
func (s *Server) debugMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.Write(w)
}

// debugTrace renders the retained per-request traces, oldest first, each
// as its text span tree under a header line.
func (s *Server) debugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	entries := append([]traceEntry(nil), s.traces...)
	s.mu.Unlock()
	for _, e := range entries {
		fmt.Fprintf(w, "== request %d %s ==\n", e.id, e.ep)
		e.rec.WriteTree(w)
	}
}

// debugRequests renders the request log, one "id endpoint status" line
// per request, oldest first.
func (s *Server) debugRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range s.Requests() {
		fmt.Fprintf(w, "%d %s %d\n", e.ID, e.Endpoint, e.Status)
	}
}

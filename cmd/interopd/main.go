// Command interopd is the long-lived interop service daemon: the four
// engine endpoints (/v1/translate, /v1/check, /v1/migrate, /v1/flow)
// served over HTTP+JSON from one process, with a global worker budget, a
// bounded admission queue, per-request deadlines, one shared memo cache,
// and /debug introspection. A response's output field is byte-identical
// to the corresponding CLI's stdout — the daemon and the CLIs call the
// same internal/serve entry points.
//
// Daemon mode:
//
//	interopd -addr :8347 -j 4 -queue 8 -deadline 30s -cache-dir /var/cache/interop
//
// SIGTERM / interrupt drains in-flight requests before exiting. With
// -request-log FILE the request log behind /debug/requests is journaled
// durably (integrity-framed, fsync'd per request) and replayed on
// startup, so a restarted daemon still reports the traffic it served in
// earlier lives.
//
// Client mode (used by the CI smoke job; no third-party tools needed):
//
//	interopd -post /v1/flow -body '{"blocks":2}'    # prints output, exits with the run's exit status
//	interopd -get /debug/metrics                    # prints a debug endpoint
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cadinterop/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8347", "listen address (daemon) or target host:port (client)")
		workers  = flag.Int("j", 0, "global worker budget: engine runs executing at once, and the cap on a request's jobs (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", -1, "admission queue bound; -1 = one waiter per worker, 0 = shed when all workers busy")
		deadline = flag.Duration("deadline", 0, "default per-request deadline (0 = none); a request's deadline_ms may shorten it but never lengthen it")
		cacheMem = flag.Bool("cache", false, "share an in-memory memo cache across requests")
		cacheDir = flag.String("cache-dir", "", "persist the shared memo cache under this directory (implies -cache)")
		traces   = flag.Int("traces", 0, "recent per-request traces retained for /debug/trace (0 = 32)")
		reqLog   = flag.String("request-log", "", "persist the request log to this journal file and replay it on startup")
		postPath = flag.String("post", "", "client mode: POST this path on -addr and print the response output")
		body     = flag.String("body", "", "client mode: JSON request body for -post")
		getPath  = flag.String("get", "", "client mode: GET this path on -addr and print the response body")
	)
	flag.Parse()
	if *postPath != "" || *getPath != "" {
		os.Exit(client(*addr, *postPath, *getPath, *body, os.Stdout, os.Stderr))
	}
	cfg := serve.Config{
		Workers: *workers, Queue: *queue, Deadline: *deadline,
		CacheMem: *cacheMem, CacheDir: *cacheDir, Traces: *traces,
		RequestLog: *reqLog,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interopd:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon(ctx, cfg, ln, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "interopd:", err)
		os.Exit(1)
	}
}

// Transport bounds, so a slow or silent client cannot hold a connection:
// the time to send a request header, and to keep an idle connection.
// They are fixed, not flags; a test shortens the first.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// daemon serves on ln until ctx is canceled (SIGTERM/interrupt in main),
// then drains: in-flight requests finish, new connections are refused.
func daemon(ctx context.Context, cfg serve.Config, ln net.Listener, logw io.Writer) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(logw, "interopd: serving on %s (workers=%d)\n", ln.Addr(), s.Gate().Workers())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(logw, "interopd: draining")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	<-errc // Serve's http.ErrServerClosed
	fmt.Fprintln(logw, "interopd: drained")
	return nil
}

// client runs one request against a daemon and mirrors the CLI contract:
// the response's output field goes to stdout, its error field to stderr,
// and the returned code is the run's exit status. Non-2xx admission
// refusals (503 shed, 504 deadline) print the server's message and map
// to exit 3 so smoke scripts can tell refusal from engine failure.
func client(addr, postPath, getPath, body string, stdout, stderr io.Writer) int {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var (
		resp *http.Response
		err  error
	)
	if postPath != "" {
		resp, err = http.Post(base+postPath, "application/json", strings.NewReader(body))
	} else {
		resp, err = http.Get(base + getPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "interopd:", err)
		return 2
	}
	defer resp.Body.Close()
	if getPath != "" || resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "interopd: HTTP %d: %s", resp.StatusCode, data)
			return 3
		}
		stdout.Write(data)
		return 0
	}
	var r serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		fmt.Fprintln(stderr, "interopd:", err)
		return 2
	}
	io.WriteString(stdout, r.Output)
	if r.Error != "" {
		fmt.Fprintln(stderr, "interopd:", r.Error)
	}
	return r.Exit
}

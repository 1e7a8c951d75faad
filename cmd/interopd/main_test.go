package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cadinterop/internal/serve"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// address, a cancel that triggers the graceful drain, and the channel
// carrying daemon's return value.
func startDaemon(t *testing.T, cfg serve.Config) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var logs bytes.Buffer
	go func() { done <- daemon(ctx, cfg, ln, &logs) }()
	return ln.Addr().String(), cancel, done
}

func TestDaemonClientDrain(t *testing.T) {
	addr, cancel, done := startDaemon(t, serve.Config{Workers: 2})

	// A client flow request prints exactly the CLI's stdout and exits 0.
	var out, errw bytes.Buffer
	if code := client(addr, "/v1/flow", "", `{"blocks":2}`, &out, &errw); code != 0 {
		t.Fatalf("client exit %d, stderr %q", code, errw.String())
	}
	var want bytes.Buffer
	req := serve.FlowRequest{Blocks: 2}
	if _, err := serve.Flow(context.Background(), &want, req.WithDefaults(), false); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("daemon output differs from direct run:\n--- daemon\n%s--- direct\n%s", out.String(), want.String())
	}

	// Debug endpoints are reachable through the client's GET mode.
	out.Reset()
	if code := client(addr, "", "/debug/metrics", "", &out, &errw); code != 0 {
		t.Fatalf("metrics exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "serve.flow.served") {
		t.Errorf("metrics missing serve.flow.served:\n%s", out.String())
	}

	// An engine error surfaces as the CLI exit status, not a transport error.
	out.Reset()
	errw.Reset()
	if code := client(addr, "/v1/translate", "", `{"tool":"nope"}`, &out, &errw); code != 1 {
		t.Errorf("bad tool: exit %d, want 1 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "unknown tool") {
		t.Errorf("stderr %q missing engine error", errw.String())
	}

	// Cancel = SIGTERM: the daemon drains and returns nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestDaemonRequestLogSurvivesRestart: with -request-log, the request
// history behind /debug/requests outlives a full SIGTERM/restart cycle
// — the second daemon life reports the first life's traffic and keeps
// numbering where it left off.
func TestDaemonRequestLogSurvivesRestart(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "requests.wal")
	cfg := serve.Config{Workers: 2, RequestLog: logPath}

	addr, cancel, done := startDaemon(t, cfg)
	var out, errw bytes.Buffer
	for i := 0; i < 3; i++ {
		out.Reset()
		if code := client(addr, "/v1/flow", "", `{"blocks":2}`, &out, &errw); code != 0 {
			t.Fatalf("request %d: exit %d, stderr %q", i, code, errw.String())
		}
	}
	out.Reset()
	if code := client(addr, "", "/debug/requests", "", &out, &errw); code != 0 {
		t.Fatalf("debug/requests exit %d: %s", code, errw.String())
	}
	firstLife := out.String()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}

	addr, cancel, done = startDaemon(t, cfg)
	out.Reset()
	if code := client(addr, "", "/debug/requests", "", &out, &errw); code != 0 {
		t.Fatalf("restarted debug/requests exit %d: %s", code, errw.String())
	}
	// Debug GETs are not engine requests and are not journaled, so the
	// restarted daemon must report exactly the first life's three flow
	// requests, verbatim.
	if out.String() != firstLife {
		t.Errorf("restarted /debug/requests differs:\n--- first life\n%s--- second life\n%s", firstLife, out.String())
	}
	if !strings.Contains(out.String(), "3 flow") {
		t.Errorf("restarted log missing request 3:\n%s", out.String())
	}
	// New traffic continues the sequence: request 4 in life two.
	out.Reset()
	if code := client(addr, "/v1/flow", "", `{"blocks":2}`, &out, &errw); code != 0 {
		t.Fatalf("post-restart flow: exit %d, stderr %q", code, errw.String())
	}
	out.Reset()
	if code := client(addr, "", "/debug/requests", "", &out, &errw); code != 0 {
		t.Fatalf("second debug/requests exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "4 flow") {
		t.Errorf("post-restart log did not continue to ID 4:\n%s", out.String())
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("second drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second daemon did not drain")
	}
}

func TestClientConnectionRefused(t *testing.T) {
	// A port from a just-closed listener: nothing is serving there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var out, errw bytes.Buffer
	if code := client(addr, "/v1/flow", "", "{}", &out, &errw); code != 2 {
		t.Errorf("exit %d, want 2 for transport failure", code)
	}
}

// TestSlowHeaderClosed: a connection that sends part of a request header
// and then stalls is closed once readHeaderTimeout passes, and the daemon
// keeps serving other clients.
func TestSlowHeaderClosed(t *testing.T) {
	orig := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	defer func() { readHeaderTimeout = orig }()
	addr, cancel, done := startDaemon(t, serve.Config{Workers: 1})
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/flow HTTP/1.1\r\nHost: interopd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}

	var out, errw bytes.Buffer
	if code := client(addr, "/v1/flow", "", `{"blocks":1}`, &out, &errw); code != 0 {
		t.Fatalf("request after the stalled connection: exit %d, stderr %q", code, errw.String())
	}
}

//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package filecheck

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/memo"
)

// TestVetFileParsesHashedBytes: a cached vet keys its entry by the hash of
// the bytes it read, so it must parse those same bytes. The path here is a
// FIFO that serves a good file on its first open and a bad one on its
// second; a vet that read the path twice would store the bad file's
// FAILED verdict under the good file's key.
func TestVetFileParsesHashedBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.edf")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	contents := []string{
		"(edif d (cell c (interface) (primitive)))",
		"(edif d (cell c (interface)",
	}
	var served atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range contents {
			// Blocks until a reader opens the FIFO.
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteString(c)
			// Count before Close: a reader sees end of input only after
			// Close, so once vetFile returns, served counts its opens.
			served.Add(1)
			f.Close()
			// Wait for that reader to close, or the next open would
			// append to its input: a non-blocking open for writing fails
			// with ENXIO once no reader is left.
			for {
				fd, err := syscall.Open(path, syscall.O_WRONLY|syscall.O_NONBLOCK, 0)
				if err != nil {
					break
				}
				syscall.Close(fd)
				runtime.Gosched()
			}
		}
	}()

	text, err := vetFile(path, Options{Mode: diag.Strict, Cache: memo.New(nil)})

	for served.Load() < int32(len(contents)) {
		// The writer waits to serve another open; take it. An open that
		// meets the writer's ENXIO probe instead reads nothing.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, f)
		f.Close()
	}
	<-done
	if err != nil || !strings.Contains(text, "flip.edf: ok") {
		t.Errorf("vet of the first content = %q, %v; want an ok verdict", text, err)
	}
}

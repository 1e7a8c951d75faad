// Package journal is the durable write-ahead layer under the workbench's
// long-running state: an append-only sequence of integrity-framed records
// that survives process death with crash-exact semantics. Each record is
// one payload line followed by a trailer line carrying the payload's
// sha256, byte count, and sequence number — the integrity frame the
// interchange files and the memo cache share (internal/frame), extended
// with a sequence so a journal can never be silently reordered, spliced,
// or resumed out of step. A reader
// validates every frame and truncates to the last valid prefix: a torn
// tail from a mid-append crash, a corrupt record from disk damage, or any
// byte mutation surfaces as "the journal ends here", never as bad state
// replayed into an engine (DESIGN.md §5j).
//
// The package is deliberately engine-agnostic: payloads are opaque bytes
// (no newlines). internal/workflow layers its task-transition records on
// top for durable, resumable runs, and internal/serve journals its
// request log so a restarted daemon can answer "what did I serve".
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"cadinterop/internal/frame"
)

// Errors.
var (
	// ErrPayload rejects a payload that cannot be framed (embedded newline).
	ErrPayload = errors.New("journal: payload contains a newline")
	// ErrTorn reports that a scan stopped before the end of its input: the
	// remaining bytes are a torn or corrupt suffix, not valid records.
	ErrTorn = errors.New("journal: torn or corrupt record")
	// ErrNotJournal refuses a non-empty file containing no valid records:
	// that is some other file handed to us by mistake, not a journal with
	// a torn tail, and truncating it would destroy its contents.
	ErrNotJournal = errors.New("journal: existing file is not a journal")
	// ErrLocked reports that another process holds the journal open;
	// concurrent appenders would interleave writes at the same offset and
	// corrupt the file despite per-record framing.
	ErrLocked = errors.New("journal: file is locked by another process")
)

// CrashExitStatus is the process exit status of the CrashAfter test hook,
// mirroring fault.CrashStatus: the run was killed from outside, mid-work.
const CrashExitStatus = 137

// exitProcess is the CrashAfter seam; tests swap it to observe the crash
// point without dying.
var exitProcess = func() { os.Exit(CrashExitStatus) }

// Rec is one validated record.
type Rec struct {
	// Seq is the record's 1-based position in the journal.
	Seq int64
	// Payload is the record's opaque content (newline-free).
	Payload []byte
}

// recordFields renders the fields of one record's trailer, which is
// compared byte-for-byte on read: its rendering must never change shape.
func recordFields(payload []byte, seq int64) string {
	return "bytes=" + strconv.Itoa(len(payload)) + " seq=" + strconv.FormatInt(seq, 10)
}

// Scan parses data into its longest valid record prefix. It returns the
// records, the byte length of the valid prefix, and nil when the whole
// input parsed — or ErrTorn (wrapped with detail) when trailing bytes had
// to be discarded. Scan never panics on arbitrary input and is stable
// over its own output: Scan(data[:valid]) yields the same records with no
// remainder.
func Scan(data []byte) (recs []Rec, valid int, err error) {
	off := 0
	seq := int64(0)
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return recs, off, fmt.Errorf("%w: unterminated payload at offset %d", ErrTorn, off)
		}
		payload := data[off : off+nl]
		rest := data[off+nl+1:]
		tnl := bytes.IndexByte(rest, '\n')
		if tnl < 0 {
			return recs, off, fmt.Errorf("%w: unterminated trailer at offset %d", ErrTorn, off)
		}
		trailer := string(rest[:tnl+1])
		if trailer != frame.Line("wal", payload, recordFields(payload, seq+1)) {
			return recs, off, fmt.Errorf("%w: record %d trailer mismatch at offset %d", ErrTorn, seq+1, off)
		}
		seq++
		recs = append(recs, Rec{Seq: seq, Payload: append([]byte(nil), payload...)})
		off += nl + 1 + tnl + 1
	}
	return recs, off, nil
}

// Writer appends framed records to one backing stream. A file-backed
// Writer (from OpenFile) fsyncs after every append, so a record returned
// without error is on the device: the write-ahead contract resume relies
// on. The first failed write or sync is latched and every later Append
// returns it: a record appended after torn bytes, or under a repeated
// sequence number, could never be recovered. A Writer is not safe for
// concurrent use; callers serialize (the workflow engine is
// single-goroutine, the daemon appends under its request-log mutex).
type Writer struct {
	w   io.Writer
	f   *os.File // non-nil when file-backed: synced per append
	seq int64
	err error // the latched write or sync failure

	// crashAfter > 0 arms the fault-injection hook: the process exits with
	// CrashExitStatus immediately after the crashAfter-th successful append
	// of this Writer's lifetime. The record is durably framed first, so a
	// resume sees exactly the records appended before the "crash" — the
	// same boundary a real mid-run kill lands on.
	crashAfter int
	appended   int
}

// NewWriter returns an in-memory Writer over w (no syncing) starting at
// sequence 0 — the backing for tests and in-process experiments.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Seq returns the sequence number of the last appended (or scanned)
// record.
func (w *Writer) Seq() int64 { return w.seq }

// CrashAfter arms the deterministic crash hook: the process dies after n
// more successful appends. n <= 0 disarms. This is the journal's half of
// the internal/fault story — a schedulable, reproducible process death at
// an exact record boundary, used by the crash-resume CI smoke.
func (w *Writer) CrashAfter(n int) {
	w.crashAfter = n
	w.appended = 0
}

// Append frames payload as the next record and commits it. File-backed
// writers sync before returning, so the record boundary is durable: a
// crash after Append resumes with this record present, a crash during it
// resumes with the torn frame truncated.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return ErrPayload
	}
	rec := append(payload[:len(payload):len(payload)], '\n')
	rec = append(rec, frame.Line("wal", payload, recordFields(payload, w.seq+1))...)
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	if w.f != nil {
		if err := frame.SyncFile(w.f); err != nil {
			w.err = err
			return err
		}
	}
	w.seq++
	w.appended++
	if w.crashAfter > 0 && w.appended >= w.crashAfter {
		exitProcess()
	}
	return nil
}

// Close closes a file-backed Writer (no-op otherwise).
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// OpenFile opens (creating if missing) the journal at path: it scans the
// existing contents, truncates any torn or corrupt tail to the last valid
// record boundary, and returns the valid records plus a Writer positioned
// to append after them. The truncation and the file's existence are both
// fsync'd (file and parent directory), so the recovered state is itself
// durable before any new record lands.
//
// Two refusals guard the recovery path. A non-empty file with no valid
// records at all is ErrNotJournal: it is some other file, and truncating
// it to zero would destroy data never placed under journal management —
// a torn tail is only cut when at least one valid record precedes it.
// (The cost: a journal torn during its very first append must be removed
// by hand before the path can be reused.) And the open takes an exclusive
// advisory lock on the file, so a second process journaling or resuming
// the same path fails fast with ErrLocked instead of interleaving
// appends; the kernel drops the lock with the descriptor, so a crashed
// holder's journal is immediately resumable.
func OpenFile(path string) ([]Rec, *Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := lockFile(f, path); err != nil {
		f.Close()
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, valid, _ := Scan(data)
	if len(data) > 0 && len(recs) == 0 {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %q holds %d bytes with no valid records; refusing to truncate (remove the file to start a journal at this path)",
			ErrNotJournal, path, len(data))
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := frame.SyncFile(f); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := frame.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{w: f, f: f}
	if n := len(recs); n > 0 {
		w.seq = recs[n-1].Seq
	}
	return recs, w, nil
}

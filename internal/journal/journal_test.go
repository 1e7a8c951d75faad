package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cadinterop/internal/frame"
)

func appendAll(t *testing.T, w *Writer, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payloads := []string{"alpha", "", `{"k":"attempt","t":"rtl","a":1}`, "omega"}
	appendAll(t, w, payloads...)
	if w.Seq() != int64(len(payloads)) {
		t.Fatalf("Seq = %d, want %d", w.Seq(), len(payloads))
	}
	recs, valid, err := Scan(buf.Bytes())
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if valid != buf.Len() {
		t.Fatalf("valid = %d, want %d", valid, buf.Len())
	}
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Errorf("rec %d: Seq = %d, want %d", i, r.Seq, i+1)
		}
		if string(r.Payload) != payloads[i] {
			t.Errorf("rec %d: Payload = %q, want %q", i, r.Payload, payloads[i])
		}
	}
}

func TestPayloadNewlineRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Append([]byte("two\nlines")); !errors.Is(err, ErrPayload) {
		t.Fatalf("Append newline payload: err = %v, want ErrPayload", err)
	}
	if w.Seq() != 0 {
		t.Fatalf("Seq advanced to %d on rejected append", w.Seq())
	}
}

// Every byte-level prefix of a valid journal scans without panic, and the
// valid prefix Scan reports is stable: rescanning data[:valid] yields the
// same records and no remainder. This is the truncate-to-last-valid-prefix
// contract resume relies on.
func TestScanEveryPrefixStable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	appendAll(t, w, "one", "two", "three", "four")
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		recs, valid, err := Scan(data[:cut])
		if valid > cut {
			t.Fatalf("cut %d: valid %d exceeds input", cut, valid)
		}
		if cut == len(data) && err != nil {
			t.Fatalf("full input: unexpected err %v", err)
		}
		recs2, valid2, err2 := Scan(data[:valid])
		if err2 != nil {
			t.Fatalf("cut %d: rescan of valid prefix errored: %v", cut, err2)
		}
		if valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("cut %d: rescan gave valid=%d recs=%d, want %d/%d", cut, valid2, len(recs2), valid, len(recs))
		}
	}
}

// Any single-byte mutation of a journal is detected: the mutated record
// and everything after it are dropped, and nothing before it changes.
func TestScanDetectsByteFlips(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	appendAll(t, w, "first", "second", "third")
	clean := buf.Bytes()
	recs, _, _ := Scan(clean)
	// Record byte ranges: find where each record starts.
	starts := []int{0}
	off := 0
	for range recs {
		r, v, _ := Scan(clean[off:])
		_ = r
		_ = v
		break
	}
	// Simpler: recompute offsets by scanning incrementally.
	starts = starts[:1]
	for i := 1; i <= len(recs); i++ {
		var b bytes.Buffer
		wr := NewWriter(&b)
		for j := 0; j < i; j++ {
			wr.Append(recs[j].Payload)
		}
		starts = append(starts, b.Len())
	}
	for pos := 0; pos < len(clean); pos++ {
		mut := append([]byte(nil), clean...)
		mut[pos] ^= 0x20
		got, valid, err := Scan(mut)
		// The record containing pos must be gone.
		var hitRec int
		for hitRec = 0; hitRec < len(recs); hitRec++ {
			if pos < starts[hitRec+1] {
				break
			}
		}
		if len(got) > hitRec {
			t.Fatalf("flip at %d: kept %d records, want <= %d", pos, len(got), hitRec)
		}
		if len(got) == hitRec && err == nil {
			t.Fatalf("flip at %d: dropped a record with nil error", pos)
		}
		if valid > starts[hitRec] {
			t.Fatalf("flip at %d: valid=%d past start of damaged record %d", pos, valid, starts[hitRec])
		}
		for i, r := range got {
			if !bytes.Equal(r.Payload, recs[i].Payload) {
				t.Fatalf("flip at %d: surviving record %d changed", pos, i)
			}
		}
	}
}

func TestOpenFileTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")

	recs, w, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile fresh: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal returned %d records", len(recs))
	}
	appendAll(t, w, "one", "two")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a torn append: half a third record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("three\n; wal sha256:dead"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, w, err = OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile torn: %v", err)
	}
	if len(recs) != 2 || string(recs[0].Payload) != "one" || string(recs[1].Payload) != "two" {
		t.Fatalf("recovered %d records %v, want [one two]", len(recs), recs)
	}
	if w.Seq() != 2 {
		t.Fatalf("resumed Seq = %d, want 2", w.Seq())
	}
	// Appends continue the sequence after the truncated tail.
	appendAll(t, w, "three")
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, valid, err := Scan(data)
	if err != nil || valid != len(data) {
		t.Fatalf("post-recovery journal not fully valid: valid=%d/%d err=%v", valid, len(data), err)
	}
	if len(got) != 3 || string(got[2].Payload) != "three" || got[2].Seq != 3 {
		t.Fatalf("post-recovery records wrong: %v", got)
	}
}

// A non-empty file with no valid records is not a journal with a torn
// tail — it is somebody else's data. OpenFile must refuse it untouched,
// not truncate it to zero.
func TestOpenFileRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	content := []byte("design review notes\nnot a journal\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenFile(path)
	if !errors.Is(err, ErrNotJournal) {
		t.Fatalf("OpenFile on foreign file: err = %v, want ErrNotJournal", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("refused OpenFile modified the file: %q", got)
	}
}

// A torn tail is only truncated when at least one valid record precedes
// it; a file that is nothing but a torn first record is refused like any
// other foreign file.
func TestOpenFileRefusesTornFirstRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(path, []byte("payload\n; wal sha256:dead"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(path); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("OpenFile on torn-first-record file: err = %v, want ErrNotJournal", err)
	}
}

// Two concurrent opens of one journal must not both get a writer: the
// second fails fast with ErrLocked, and the lock dies with the holder's
// descriptor so a close (or crash) frees the path immediately.
func TestOpenFileExcludesSecondHolder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	_, w1, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w1, "one")
	if _, _, err := OpenFile(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second OpenFile while held: err = %v, want ErrLocked", err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	recs, w2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile after release: %v", err)
	}
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "one" {
		t.Fatalf("post-release records = %v, want [one]", recs)
	}
}

// File-backed writers must sync on every append, before Append returns —
// the write-ahead contract. The seam counts syncs.
func TestAppendSyncsPerRecord(t *testing.T) {
	origFile, origDir := frame.SyncFile, frame.SyncDir
	defer func() { frame.SyncFile, frame.SyncDir = origFile, origDir }()
	fileSyncs := 0
	frame.SyncFile = func(f *os.File) error { fileSyncs++; return f.Sync() }
	dirSyncs := 0
	frame.SyncDir = func(dir string) error { dirSyncs++; return origDir(dir) }

	path := filepath.Join(t.TempDir(), "run.wal")
	_, w, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if dirSyncs != 1 {
		t.Fatalf("OpenFile synced dir %d times, want 1", dirSyncs)
	}
	for i := 0; i < 3; i++ {
		before := fileSyncs
		if err := w.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
		if fileSyncs != before+1 {
			t.Fatalf("append %d: fileSyncs %d -> %d, want +1", i, before, fileSyncs)
		}
	}
}

// In-memory writers never touch the sync seams.
func TestMemWriterNoSync(t *testing.T) {
	origFile := frame.SyncFile
	defer func() { frame.SyncFile = origFile }()
	frame.SyncFile = func(f *os.File) error {
		t.Fatal("SyncFile called for in-memory writer")
		return nil
	}
	w := NewWriter(&bytes.Buffer{})
	appendAll(t, w, "a", "b")
}

// tearingWriter accepts its first write whole, writes half of its second
// and fails, and accepts everything after — a device that recovers from
// a transient fault.
type tearingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *tearingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == 2 {
		n, _ := w.buf.Write(p[:len(p)/2])
		return n, errors.New("device error")
	}
	return w.buf.Write(p)
}

// TestAppendLatchesWriteFailure: after a torn write, no later Append may
// report success. A record appended after the torn bytes can never be
// recovered, so the scan must yield exactly the records whose Append
// returned nil.
func TestAppendLatchesWriteFailure(t *testing.T) {
	tw := &tearingWriter{}
	w := NewWriter(tw)
	var acked []string
	for i := 1; i <= 4; i++ {
		p := fmt.Sprintf(`{"rec":%d}`, i)
		if err := w.Append([]byte(p)); err == nil {
			acked = append(acked, p)
		} else if i > 2 && err.Error() != "device error" {
			t.Errorf("append %d: err = %v, want the latched device error", i, err)
		}
	}
	recs, _, _ := Scan(tw.buf.Bytes())
	var got []string
	for _, r := range recs {
		got = append(got, string(r.Payload))
	}
	if !reflect.DeepEqual(got, acked) {
		t.Fatalf("scan recovered %q, but Append acknowledged %q", got, acked)
	}
	if w.Seq() != int64(len(acked)) {
		t.Fatalf("Seq = %d after %d acknowledged appends", w.Seq(), len(acked))
	}
}

// TestAppendLatchesSyncFailure: after a failed fsync the writer must not
// append again — the next record would repeat the unsynced record's
// sequence number and end the valid journal there.
func TestAppendLatchesSyncFailure(t *testing.T) {
	origFile := frame.SyncFile
	defer func() { frame.SyncFile = origFile }()
	path := filepath.Join(t.TempDir(), "run.wal")
	_, w, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, "one")
	frame.SyncFile = func(*os.File) error { return errors.New("sync failed") }
	if err := w.Append([]byte("two")); err == nil {
		t.Fatal("append with a failed sync returned nil")
	}
	frame.SyncFile = origFile
	if err := w.Append([]byte("three")); err == nil || err.Error() != "sync failed" {
		t.Fatalf("append after a failed sync: err = %v, want the latched sync error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, valid, err := Scan(data); err != nil || valid != len(data) || len(recs) > 2 {
		t.Fatalf("journal after a failed sync: %d records, %d/%d bytes valid, %v", len(recs), valid, len(data), err)
	}
}

func TestCrashAfter(t *testing.T) {
	orig := exitProcess
	defer func() { exitProcess = orig }()
	crashed := false
	exitProcess = func() { crashed = true }

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.CrashAfter(2)
	appendAll(t, w, "one")
	if crashed {
		t.Fatal("crashed after 1 append, armed for 2")
	}
	appendAll(t, w, "two")
	if !crashed {
		t.Fatal("did not crash after 2nd append")
	}
	// The crashing record is fully framed before the exit fires.
	recs, _, err := Scan(buf.Bytes())
	if err != nil || len(recs) != 2 {
		t.Fatalf("journal at crash point: %d recs, err=%v; want 2, nil", len(recs), err)
	}

	// Disarm.
	crashed = false
	w.CrashAfter(0)
	appendAll(t, w, "three")
	if crashed {
		t.Fatal("crashed while disarmed")
	}
}

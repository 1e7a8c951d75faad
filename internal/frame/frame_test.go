package frame

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// bytesField is the field set a cache entry's trailer carries.
func bytesField(body []byte) string { return "bytes=" + strconv.Itoa(len(body)) }

// TestLineRendering pins the trailer rendering: it is part of every
// stored format, so any change here breaks every stored file.
func TestLineRendering(t *testing.T) {
	const abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	for _, c := range []struct{ tag, fields, want string }{
		{"integrity", "bytes=3", "; integrity sha256:" + abc + " bytes=3\n"},
		{"wal", "bytes=3 seq=7", "; wal sha256:" + abc + " bytes=3 seq=7\n"},
	} {
		if got := Line(c.tag, []byte("abc"), c.fields); got != c.want {
			t.Errorf("Line(%q) = %q, want %q", c.tag, got, c.want)
		}
	}
}

// TestSealOpen: every body round-trips, trailer-like lines and a missing
// final newline included, and a truncated or re-tagged file does not.
func TestSealOpen(t *testing.T) {
	for _, body := range []string{
		"",
		"no final newline",
		"line\n",
		"x\n; integrity sha256:" + strings.Repeat("0", 64) + " bytes=1\ny",
		"; integrity sha256:",
	} {
		sealed := Seal([]byte(body), "integrity", bytesField([]byte(body)))
		if got, ok := Open(sealed, "integrity", bytesField); !ok || string(got) != body {
			t.Errorf("Open(Seal(%q)) = %q, %v", body, got, ok)
		}
		if _, ok := Open(sealed[:len(sealed)-1], "integrity", bytesField); ok {
			t.Errorf("Open accepted %q without its final newline", body)
		}
		if _, ok := Open(sealed, "wal", bytesField); ok {
			t.Errorf("Open accepted %q under another tag", body)
		}
	}
}

// TestWriterMatchesSeal: streaming a body through a Writer in small
// chunks produces exactly Seal's bytes and counts them.
func TestWriterMatchesSeal(t *testing.T) {
	body := []byte(strings.Repeat("(net n0000001 (property crit \"1\"))\n", 300))
	want := Seal(body, "integrity", "cells=1")
	var out bytes.Buffer
	fw := NewWriter(&out)
	for i := 0; i < len(body); i += 7 {
		fw.Write(body[i:min(i+7, len(body))])
	}
	n, err := fw.Seal("integrity", "cells=1")
	if err != nil || !bytes.Equal(out.Bytes(), want) || n != int64(len(want)) {
		t.Fatalf("streamed %d bytes (%v), equal to Seal: %v", n, err, bytes.Equal(out.Bytes(), want))
	}
}

// TestParse pins the lenient reading: fields split on any white space,
// the checksum must be the full lowercase hex.
func TestParse(t *testing.T) {
	body := []byte("body\n")
	sum := sha256.Sum256(body)
	hex := strings.TrimSuffix(strings.TrimPrefix(Line("integrity", body, ""), "; integrity sha256:"), " \n")
	for _, c := range []struct {
		line         string
		fields       []string
		found, match bool
	}{
		{"; integrity sha256:" + hex + " cells=1 ports=2", []string{"cells=1", "ports=2"}, true, true},
		{"; integrity sha256:" + hex + "\tcells=1  ports=2", []string{"cells=1", "ports=2"}, true, true},
		{"; integrity sha256:" + hex, []string{}, true, true},
		{"; integrity sha256:" + strings.ToUpper(hex) + " cells=1", nil, true, false},
		{"; integrity sha256:" + hex[:32] + " cells=1", nil, true, false},
		{"; integrity sha256: cells=1", nil, true, false},
		{"; integrity\tsha256:" + hex + " cells=1", nil, false, false},
		{"; wal sha256:" + hex + " cells=1", nil, false, false},
		{"", nil, false, false},
	} {
		fields, found, match := Parse(c.line, "integrity", sum)
		if found != c.found || match != c.match || !reflect.DeepEqual(fields, c.fields) {
			t.Errorf("Parse(%q) = %q, %v, %v; want %q, %v, %v", c.line, fields, found, match, c.fields, c.found, c.match)
		}
	}
}

// TestWriteFileDurability pins the publish protocol: the data is synced
// before the file appears under its name, the directory after, the mode
// is perm, and an existing file is replaced whole.
func TestWriteFileDurability(t *testing.T) {
	origFile, origDir := SyncFile, SyncDir
	defer func() { SyncFile, SyncDir = origFile, origDir }()
	dir := t.TempDir()
	path := filepath.Join(dir, "entry")
	published := func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "none"
		}
		return string(b)
	}
	var steps []string
	SyncFile = func(f *os.File) error {
		steps = append(steps, "sync-file:"+published())
		return origFile(f)
	}
	SyncDir = func(d string) error {
		steps = append(steps, "sync-dir:"+published())
		return origDir(d)
	}
	for _, data := range []string{"old", "new"} {
		if err := WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"sync-file:none", "sync-dir:old", "sync-file:old", "sync-dir:new"}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("published file: %v, %v", fi, err)
	}
}

// TestWriteFileSyncFailure: a failed data sync publishes nothing and
// leaves no temp file behind.
func TestWriteFileSyncFailure(t *testing.T) {
	origFile := SyncFile
	defer func() { SyncFile = origFile }()
	SyncFile = func(*os.File) error { return errors.New("disk full") }
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "entry"), []byte("data"), 0o644); err == nil {
		t.Fatal("WriteFile succeeded with a failed sync")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed write left %v", ents)
	}
}

// FuzzFrame holds the frame's three properties on arbitrary input: no
// input panics a reader, a sealed body verifies (whole or streamed), and
// any single-byte flip of a sealed input fails verification. The
// committed seeds are stored files from the golden corpus.
func FuzzFrame(f *testing.F) {
	f.Add([]byte("payload"))
	f.Fuzz(func(t *testing.T, data []byte) {
		Open(data, "integrity", bytesField)
		Parse(string(data), "integrity", sha256.Sum256(data))

		sealed := Seal(data, "integrity", bytesField(data))
		if body, ok := Open(sealed, "integrity", bytesField); !ok || !bytes.Equal(body, data) {
			t.Fatalf("sealed body does not verify")
		}
		var streamed bytes.Buffer
		fw := NewWriter(&streamed)
		fw.Write(data)
		if n, err := fw.Seal("integrity", bytesField(data)); err != nil || n != int64(len(sealed)) || !bytes.Equal(streamed.Bytes(), sealed) {
			t.Fatalf("streamed seal differs from Seal")
		}
		line := strings.TrimSuffix(string(sealed[len(data):]), "\n")
		if fields, found, match := Parse(line, "integrity", sha256.Sum256(data)); !found || !match || !reflect.DeepEqual(fields, []string{bytesField(data)}) {
			t.Fatalf("trailer line parses as %q, %v, %v", fields, found, match)
		}

		// Flip each byte of the sealed input (sampled on large inputs), and
		// of the input itself when it is a sealed file already.
		inputs := [][]byte{sealed}
		if _, ok := Open(data, "integrity", bytesField); ok {
			inputs = append(inputs, data)
		}
		for _, in := range inputs {
			step := 1 + len(in)/256
			for i := 0; i < len(in); i += step {
				flipped := bytes.Clone(in)
				flipped[i] ^= 1 << (i % 8)
				if _, ok := Open(flipped, "integrity", bytesField); ok {
					t.Fatalf("flip at byte %d of %d still verifies", i, len(in))
				}
			}
		}
	})
}

// Package frame is the one integrity frame and the one durable write
// under the workbench's stored formats (DESIGN.md §5l). An interchange
// file, a disk cache entry and a journal record are each sealed by one
// trailer line,
//
//	; <tag> sha256:<lowercase hex of the body's sha256> <fields>\n
//
// where the tag names the format ("integrity" or "wal") and the fields
// are its own k=v manifest. The rendering is part of every stored
// format, so it must never change shape. WriteFile is the one way a
// stored file is published.
package frame

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"unicode"
)

// Line renders the trailer line that seals body.
func Line(tag string, body []byte, fields string) string {
	return line(tag, sha256.Sum256(body), fields)
}

func line(tag string, sum [sha256.Size]byte, fields string) string {
	return prefix(tag) + hex.EncodeToString(sum[:]) + " " + fields + "\n"
}

func prefix(tag string) string { return "; " + tag + " sha256:" }

// Seal returns a copy of body followed by its trailer line.
func Seal(body []byte, tag, fields string) []byte {
	return append(body[:len(body):len(body)], Line(tag, body, fields)...)
}

// Open returns the body of data sealed by Seal, where fields renders the
// fields a body's trailer carries; ok is false unless data ends in
// exactly that trailer. The trailer starts at the last "; <tag> sha256:",
// which neither its hex nor (by contract) its fields can hold, so a body
// may contain trailer-like lines and need not end in a newline.
func Open(data []byte, tag string, fields func(body []byte) string) (body []byte, ok bool) {
	p := bytes.LastIndex(data, []byte(prefix(tag)))
	if p < 0 || string(data[p:]) != Line(tag, data[:p], fields(data[:p])) {
		return nil, false
	}
	return data[:p], true
}

// Parse reads a trailer line, without its newline, for a body whose
// sha256 is sum: found reports a trailer of tag, match a checksum equal
// to sum's lowercase hex, and fields holds the rest split on white space.
// It is the lenient reading for hand-edited files; Open accepts only the
// exact rendering.
func Parse(line, tag string, sum [sha256.Size]byte) (fields []string, found, match bool) {
	rest, found := strings.CutPrefix(line, prefix(tag))
	if !found {
		return nil, false, false
	}
	end := strings.IndexFunc(rest, unicode.IsSpace)
	if end < 0 {
		end = len(rest)
	}
	if rest[:end] != hex.EncodeToString(sum[:]) {
		return nil, true, false
	}
	return strings.Fields(rest[end:]), true, true
}

// Writer hashes a body as it streams through to an underlying writer, so
// a trailer can seal a body of any size without buffering it.
type Writer struct {
	w io.Writer
	h hash.Hash
	n int64
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, h: sha256.New()} }

// Write passes p to the underlying writer and hashes what it accepted.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.h.Write(p[:n])
	w.n += int64(n)
	return n, err
}

// Seal writes the trailer line for everything written so far. It returns
// the total bytes written, trailer included.
func (w *Writer) Seal(tag, fields string) (int64, error) {
	var sum [sha256.Size]byte
	w.h.Sum(sum[:0])
	n, err := io.WriteString(w.w, line(tag, sum, fields))
	w.n += int64(n)
	return w.n, err
}

// SyncFile flushes f to the device, and SyncDir the entries of dir. They
// are variables so durability tests can observe or fail them.
var (
	SyncFile = func(f *os.File) error { return f.Sync() }
	SyncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		serr := d.Sync()
		if cerr := d.Close(); serr == nil {
			serr = cerr
		}
		return serr
	}
)

// WriteFile publishes data at path, atomically and durably: a private
// temp file beside path (never a fixed "path.tmp", which concurrent
// writers could interleave into a torn file) is written, synced, given
// perm and renamed over path, and then the directory is synced. Readers
// see the old file or the new one, never a mix, and the sync before the
// rename keeps that true across power loss, where a rename journaled
// ahead of its data can surface as a file of zeros. A failure before the
// rename removes the temp file and leaves path as it was.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = SyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

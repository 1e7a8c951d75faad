// Package filecheck vets interchange files from the command line: it picks
// a reader by file extension, parses under the requested strict/lenient
// mode, and renders the structured diagnostics in the editor-jumpable
// "source:line:col: severity: [code] msg" form. It is the shared engine
// behind the CLIs' -check/-strict/-lenient flags.
package filecheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"cadinterop/internal/al"
	"cadinterop/internal/diag"
	"cadinterop/internal/exchange"
	"cadinterop/internal/hdl"
	"cadinterop/internal/memo"
	"cadinterop/internal/par"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
)

// Options configures a vetting run.
type Options struct {
	// Mode selects the failure policy: diag.Strict aborts a file on its
	// first error-severity diagnostic, diag.Lenient quarantines malformed
	// records and keeps parsing.
	Mode diag.Mode
	// Jobs bounds the worker pool vetting files concurrently
	// (0 = GOMAXPROCS, 1 = sequential). Output order and every verdict are
	// identical at any setting.
	Jobs int
	// Cache memoizes each file's rendered diagnostics block and abort
	// verdict by (content hash, path, mode); see internal/memo.
	// Repeat vets of unchanged files are answered without re-parsing. Nil
	// disables memoization.
	Cache *memo.Cache
}

// Extensions maps recognized file extensions to reader names (for help
// text and error messages).
var Extensions = map[string]string{
	".edf": "exchange", ".edif": "exchange",
	".vl": "viewlogic", ".wir": "viewlogic",
	".cd": "cadence", ".cds": "cadence",
	".v":  "hdl",
	".al": "a/L", ".il": "a/L",
}

// CheckBytes parses named data with the reader selected by the name's
// extension. The returned diagnostics carry positions; the returned error
// is non-nil exactly when the parse aborted (in strict mode, any
// error-severity diagnostic; in lenient mode, only unrecoverable damage).
func CheckBytes(name string, data []byte, mode diag.Mode) ([]diag.Diagnostic, error) {
	return check(name, bytes.NewReader(data), mode)
}

// check is CheckBytes over a reader. The exchange, viewlogic and cadence
// readers parse straight off r in bounded memory; the hdl and a/L parsers
// take the whole input.
func check(name string, r io.Reader, mode diag.Mode) ([]diag.Diagnostic, error) {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".edf", ".edif":
		_, diags, err := exchange.ReadStream(r, exchange.ReadOptions{Mode: mode, Source: name})
		return diags, err
	case ".vl", ".wir":
		_, diags, err := vl.ReadWithDiagnostics(r, vl.ReadOptions{Mode: mode, Source: name})
		return diags, err
	case ".cd", ".cds":
		_, diags, err := cd.ReadStream(r, cd.ReadOptions{Mode: mode, Source: name})
		return diags, err
	case ".v":
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		_, diags, err := hdl.ParseWithDiagnostics(string(data), hdl.ParseOptions{Mode: mode, Source: name})
		return diags, err
	case ".al", ".il":
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		src := string(data)
		if mode == diag.Strict {
			if _, err := al.Parse(src); err != nil {
				d := diag.Diagnostic{Sev: diag.Error, Code: "parse", Source: name, Pos: diag.NoPos, Msg: err.Error()}
				return []diag.Diagnostic{d}, err
			}
			return nil, nil
		}
		// Like the other readers, stop collecting at the collector's limit.
		col := diag.New(mode, name, al.ErrParse)
		lc := lineCounter{src: src, line: 1, col: 1}
		var aborted error
		al.ParseRecover(src, func(off int, msg string) {
			if aborted == nil {
				aborted = col.Errorf("parse", lc.pos(off), "%s", msg)
			}
		})
		return col.Diags, aborted
	default:
		return nil, fmt.Errorf("unrecognized extension %q (known: .edf .edif .vl .wir .cd .cds .v .al .il)", filepath.Ext(name))
	}
}

// lineCounter is diag.LineCol for nondecreasing offsets, such as the
// ones al.ParseRecover reports: each call resumes counting where the last
// one stopped, so resolving every diagnostic costs one pass over src.
type lineCounter struct {
	src            string
	off, line, col int
}

func (c *lineCounter) pos(off int) diag.Pos {
	for ; c.off < off && c.off < len(c.src); c.off++ {
		if c.src[c.off] == '\n' {
			c.line, c.col = c.line+1, 1
		} else {
			c.col++
		}
	}
	return diag.Pos{Offset: c.off, Line: c.line, Col: c.col}
}

// CheckFile reads and vets one file.
func CheckFile(path string, mode diag.Mode) ([]diag.Diagnostic, error) {
	return CheckFileOpts(path, Options{Mode: mode})
}

// CheckFileOpts vets one file under the full option set, parsing it
// straight off the open file.
func CheckFileOpts(path string, opts Options) ([]diag.Diagnostic, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return check(path, f, opts.Mode)
}

// Files vets every path, printing diagnostics and a per-file summary to w.
// The returned error is non-nil when the run should exit non-zero: any
// file whose parse aborted — which in strict mode is any file carrying an
// error-severity diagnostic.
func Files(w io.Writer, paths []string, mode diag.Mode) error {
	return FilesOpts(w, paths, Options{Mode: mode, Jobs: 1})
}

// FilesOpts is Files under the full option set: the files are vetted
// across Options.Jobs workers, one job per file. Each file's rendered
// block — diagnostics followed by its verdict line — is buffered per file
// and printed in path order, so the output and the returned (lowest-path)
// error are byte-identical at every Jobs setting.
func FilesOpts(w io.Writer, paths []string, opts Options) error {
	type outcome struct {
		text string
		err  error
	}
	vetted := make([]outcome, len(paths))
	par.ForEach(len(paths), func(i int) error {
		text, err := vetFile(paths[i], opts)
		vetted[i] = outcome{text, err}
		return nil
	}, par.Workers(opts.Jobs))
	var firstErr error
	for _, o := range vetted {
		io.WriteString(w, o.text)
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	return firstErr
}

// vetFile produces one file's rendered block and abort verdict, consulting
// the cache when Options.Cache is set. A cached vet reads the file once,
// into a buffer from vetBufs: it hashes those bytes for the key and, on a
// miss, parses the same bytes, since a second read of the path could see
// other content and store its verdict under this key.
func vetFile(path string, opts Options) (string, error) {
	if opts.Cache == nil {
		diags, err := CheckFileOpts(path, opts)
		return render(path, opts.Mode, diags, err)
	}
	buf := vetBufs.Get().(*bytes.Buffer)
	defer putVetBuf(buf)
	if rerr := readInto(buf, path); rerr != nil {
		return render(path, opts.Mode, nil, rerr) // unreadable: uncached failure path
	}
	data := buf.Bytes()
	key := vetKey(path, data, opts.Mode)
	isVet := func(enc []byte) bool { _, _, ok := decodeVet(enc); return ok }
	if enc, ok := opts.Cache.Get(key, isVet); ok {
		text, err, _ := decodeVet(enc)
		return text, err
	}
	diags, err := CheckBytes(path, data, opts.Mode)
	text, err := render(path, opts.Mode, diags, err)
	opts.Cache.Put(key, encodeVet(text, err))
	return text, err
}

// vetBufs recycles the buffers cached vets read files into, so a warm
// vet of an unchanged file allocates nothing in proportion to its size.
// Nothing a vet returns or stores refers to the buffer: the key is a
// hash, and the diagnostics and the rendered block are copies.
var vetBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledVetBuf is the largest buffer putVetBuf keeps, so one huge file
// does not pin its size in the pool.
const maxPooledVetBuf = 4 << 20

func putVetBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledVetBuf {
		return
	}
	buf.Reset()
	vetBufs.Put(buf)
}

// readInto reads the file at path into buf, grown first to the size Stat
// reports (plus the spare bytes.Buffer.ReadFrom wants to see end of
// file), so a regular file is read without growing buf again.
func readInto(buf *bytes.Buffer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	return err
}

// vetKey is the content address of one file's vet: the file bytes, the
// payload version vetHeader as the key's tool, and the path and mode —
// path included because diagnostics embed it, so identical bytes under
// two names must not share an entry.
func vetKey(path string, data []byte, mode diag.Mode) memo.Key {
	sum := sha256.Sum256(data)
	return memo.Key{
		Content: hex.EncodeToString(sum[:]),
		Tool:    vetHeader,
		Options: memo.NewFP("filecheck.Options/v1").
			Str("path", path).
			Int("mode", int(mode)).
			Sum(),
	}
}

// render renders one file's diagnostics block — every diagnostic line
// followed by the verdict line — returning the abort error (wrapped with
// the path) when the parse gave up.
func render(path string, mode diag.Mode, diags []diag.Diagnostic, err error) (string, error) {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&sb, d)
	}
	errs, warns := diag.Count(diags, diag.Error), diag.Count(diags, diag.Warning)
	verdict := "ok"
	if err != nil {
		verdict = "FAILED"
	} else if errs > 0 {
		verdict = "recovered"
	}
	fmt.Fprintf(&sb, "%s: %s (%s mode, %d error(s), %d warning(s))\n", path, verdict, mode, errs, warns)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return sb.String(), err
}

// vetHeader versions the cached-vet payload and names it as the memo
// key's tool, so an entry an older build stored is never read. Bump it
// whenever the rendered block or the payload layout changes.
const vetHeader = "filecheck/v1"

// encodeVet serializes a rendered block plus abort verdict: a header line
// carrying the quoted abort message ("" = clean), then the block verbatim.
func encodeVet(text string, err error) []byte {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return []byte(fmt.Sprintf("%s %q\n%s", vetHeader, msg, text))
}

// decodeVet inverts encodeVet; !ok means the entry is unusable and the
// caller re-vets.
func decodeVet(data []byte) (string, error, bool) {
	head, text, found := strings.Cut(string(data), "\n")
	if !found {
		return "", nil, false
	}
	rest, cut := strings.CutPrefix(head, vetHeader+" ")
	if !cut {
		return "", nil, false
	}
	msg, uerr := strconv.Unquote(rest)
	if uerr != nil {
		return "", nil, false
	}
	if msg != "" {
		return text, errors.New(msg), true
	}
	return text, nil, true
}

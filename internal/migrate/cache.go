package migrate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"cadinterop/internal/diag"
	"cadinterop/internal/memo"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
)

// cacheHeader versions the cached-migration payload; bump when the report
// schema or the design codec changes so stale entries miss instead of
// mis-decoding.
const cacheHeader = "migrate/v1\n"

// cacheKey builds the content-addressed key for one migration: the sha256
// of the source design's canonical cd serialization, the tool name, and the
// options fingerprint. ok is false when the source cannot be canonically
// serialized — the migration then simply runs uncached.
func cacheKey(src *schematic.Design, opts Options) (memo.Key, bool) {
	var buf bytes.Buffer
	if err := cd.Write(&buf, src); err != nil {
		return memo.Key{}, false
	}
	sum := sha256.Sum256(buf.Bytes())
	return memo.Key{
		Content: hex.EncodeToString(sum[:]),
		Tool:    "migrate",
		Options: opts.Fingerprint(),
	}, true
}

// encodeMigration serializes a clean migration result: header, the report
// as one JSON line, a blank separator, then the migrated design in
// canonical cd form.
func encodeMigration(out *schematic.Design, rep *Report) ([]byte, bool) {
	repJSON, err := json.Marshal(rep)
	if err != nil {
		return nil, false
	}
	var buf bytes.Buffer
	buf.WriteString(cacheHeader)
	buf.Write(repJSON)
	buf.WriteString("\n\n")
	if err := cd.Write(&buf, out); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// splitMigration cuts an encoded migration into its report JSON and its
// cd body. json.Marshal never writes a raw newline, so the first blank
// line after the header is the separator.
func splitMigration(data []byte) (repJSON, body []byte, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(cacheHeader))
	if !ok {
		return nil, nil, false
	}
	return bytes.Cut(rest, []byte("\n\n"))
}

// decodeMigration inverts encodeMigration. Any mismatch — header, framing,
// report JSON, design parse — reports !ok and the caller treats the entry
// as a miss.
func decodeMigration(data []byte) (*schematic.Design, *Report, bool) {
	repJSON, body, ok := splitMigration(data)
	if !ok {
		return nil, nil, false
	}
	rep := &Report{}
	if err := json.Unmarshal(repJSON, rep); err != nil {
		return nil, nil, false
	}
	if rep.NetRenames == nil {
		rep.NetRenames = make(map[string]string)
	}
	out, _, err := cd.ReadBytes(body, cd.ReadOptions{Mode: diag.Strict, Source: "<migrate-cache>"})
	if err != nil {
		return nil, nil, false
	}
	return out, rep, true
}

// cacheableResult reports whether a finished migration may be stored: it
// must be clean (no verification diffs) and must survive its own
// encode/decode round trip byte-exactly, so a warm hit reproduces the cold
// result instead of a codec approximation of it. The body of the encoding
// is already the migrated design's rendering, so the decoded copy's
// rendering is compared with it.
func cacheableResult(out *schematic.Design, rep *Report) ([]byte, bool) {
	if len(rep.Verification) > 0 {
		return nil, false
	}
	enc, ok := encodeMigration(out, rep)
	if !ok {
		return nil, false
	}
	dec, _, ok := decodeMigration(enc)
	if !ok {
		return nil, false
	}
	_, body, _ := splitMigration(enc)
	var rt bytes.Buffer
	if cd.Write(&rt, dec) != nil || !bytes.Equal(body, rt.Bytes()) {
		return nil, false
	}
	return enc, true
}

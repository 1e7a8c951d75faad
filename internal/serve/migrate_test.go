package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadinterop/internal/geom"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
	"cadinterop/internal/schematic"
	"cadinterop/internal/schematic/cd"
	"cadinterop/internal/schematic/vl"
	"cadinterop/internal/workgen"
)

// migrateFiles writes the file-mode inputs of a 12-instance migration
// under a temporary directory: a vl design, a cd file of target
// libraries, an a/L callback script, and a map file with every directive
// kind whose nand2 line carries nand2Pins. It returns the request that
// names them.
func migrateFiles(t *testing.T, nand2Pins string) MigrateRequest {
	t.Helper()
	dir := t.TempDir()
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 12, Pages: 1, Seed: 3})
	write := func(name string, render func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	in := write("in.vl", func(b *bytes.Buffer) error { return vl.Write(b, w.Design) })
	lib := write("targets.cd", func(b *bytes.Buffer) error {
		libD := schematic.NewDesign("targets", geom.GridSixteenth)
		for _, lib := range w.Targets {
			dst := libD.EnsureLibrary(lib.Name)
			for _, s := range lib.Symbols {
				cp := *s
				cp.Pins = append([]schematic.SymbolPin(nil), s.Pins...)
				if err := dst.AddSymbol(&cp); err != nil {
					return err
				}
			}
		}
		return cd.Write(b, libD)
	})
	script := write("spice.al", func(b *bytes.Buffer) error {
		_, err := b.WriteString(`(define (transform name value)
	   (map (lambda (p)
	          (let ((kv (string-split p ":")))
	            (list (string-append "m_" (string-downcase (car kv))) (nth 1 kv))))
	        (string-split value " ")))`)
		return err
	})
	maps := write("maps.txt", func(b *bytes.Buffer) error {
		_, err := fmt.Fprintf(b, `# symbol replacement maps
SYM vlstd:nand2:sym cdstd:nd2:symbol %s Y=OUT
SYM vlstd:res:sym cdstd:resistor:symbol P=PLUS N=MINUS
GLOBAL VDD vdd!
GLOBAL GND gnd!
PROP rename refdes instName
PROP add view symbol
CALLBACK spice %s
`, nand2Pins, script)
		return err
	})
	return MigrateRequest{In: in, Lib: lib, Map: maps, Verbose: true}
}

// TestMigrateCacheWarmHit runs one migration twice through one cache: the
// second run is a hit and writes exactly the miss's report and design.
func TestMigrateCacheWarmHit(t *testing.T) {
	req := migrateFiles(t, "A=IN1 B=IN2")
	cache := memo.New(nil)
	var rep1, des1, rep2, des2 bytes.Buffer
	if err := Migrate(context.Background(), &rep1, &des1, req, cache); err != nil {
		t.Fatal(err)
	}
	if err := Migrate(context.Background(), &rep2, &des2, req, cache); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 1 || misses != 1 {
		t.Errorf("hits %d, misses %d; want 1 and 1", hits, misses)
	}
	if !strings.Contains(rep1.String(), "verification: equivalent") || des1.Len() == 0 {
		t.Fatalf("the miss rendered report %q and %d design bytes", rep1.String(), des1.Len())
	}
	if !bytes.Equal(rep1.Bytes(), rep2.Bytes()) {
		t.Errorf("the hit's report differs:\nmiss %s\nhit  %s", rep1.String(), rep2.String())
	}
	if !bytes.Equal(des1.Bytes(), des2.Bytes()) {
		t.Error("the hit's design differs from the miss's")
	}
}

// TestMigrateCacheSkipsDirtyResults: a migration with verification diffs
// (here a nand2 pin map with A and B swapped) renders its report and
// design, returns its error, and is never stored.
func TestMigrateCacheSkipsDirtyResults(t *testing.T) {
	req := migrateFiles(t, "A=IN2 B=IN1")
	cache := memo.New(nil)
	var outs [2]bytes.Buffer
	for i := range outs {
		err := Migrate(context.Background(), &outs[i], &outs[i], req, cache)
		if err == nil || err.Error() != "verification found 6 diffs" {
			t.Fatalf("run %d: err = %v, want verification found 6 diffs", i, err)
		}
	}
	if !strings.Contains(outs[0].String(), "(design ") {
		t.Errorf("the dirty migration rendered no design:\n%s", outs[0].String())
	}
	if outs[0].String() != outs[1].String() {
		t.Error("two dirty runs rendered different bytes")
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 0 || misses != 2 {
		t.Errorf("hits %d, misses %d; want 0 and 2", hits, misses)
	}
}

// TestMigrateCacheForeignEntryIsMiss: bytes under a migration's key that
// are not an entry of this version, damaged or written by another
// format, answer like a cold run, and the clean result overwrites them,
// so the next run is a hit.
func TestMigrateCacheForeignEntryIsMiss(t *testing.T) {
	req := MigrateRequest{Gen: 20, Seed: 42, Verbose: true}
	var cold bytes.Buffer
	if err := Migrate(context.Background(), &cold, &cold, req, nil); err != nil {
		t.Fatal(err)
	}
	w := workgen.Schematic(workgen.SchematicOptions{Instances: 20, Pages: 1, Seed: 42})
	key := migrateKey(w.Design, w.MigrateOptions())
	for _, payload := range []string{
		"",
		"garbage",
		"migrate/v1\n{\"ReplacedInstances\":3}\n\n(design x)\n",
		"migrate/v2\n(design x)\n",
		"migrate/v2 -1\n(design x)\n",
		"migrate/v2 99999\nshort",
		"migrate/v2 12x\n(design x)\n",
		"3\nabc(design x)\n",
	} {
		reg := obs.NewRegistry()
		cache := memo.New(reg)
		cache.Put(key, []byte(payload))
		for run := 1; run <= 2; run++ {
			var got bytes.Buffer
			if err := Migrate(context.Background(), &got, &got, req, cache); err != nil {
				t.Fatalf("%q run %d: %v", payload, run, err)
			}
			if got.String() != cold.String() {
				t.Errorf("%q run %d differs from a cold run: %s", payload, run, firstLineDiff(cold.String(), got.String()))
			}
		}
		// One put of the foreign bytes, one of the clean entry over them,
		// and none on the run that hit it.
		if puts := reg.Counter("memo.puts").Value(); puts != 2 {
			t.Errorf("%q: %d puts, want 2", payload, puts)
		}
	}
}

// firstLineDiff names the first line where two renderings part.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestMigrateFileFieldsRejectedOverHTTP: in, lib and map name server
// paths, and a map's CALLBACK lines name more and run them as a/L. The
// daemon refuses any body that sets one of them before engine work, even
// when the files exist and would migrate cleanly.
func TestMigrateFileFieldsRejectedOverHTTP(t *testing.T) {
	req := migrateFiles(t, "A=IN1 B=IN2")
	if err := Migrate(context.Background(), &bytes.Buffer{}, &bytes.Buffer{}, req, nil); err != nil {
		t.Fatalf("the files do not migrate in process: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, body := range []string{
		fmt.Sprintf(`{"in":%q,"lib":%q,"map":%q}`, req.In, req.Lib, req.Map),
		fmt.Sprintf(`{"in":%q}`, req.In),
		fmt.Sprintf(`{"lib":%q}`, req.Lib),
		fmt.Sprintf(`{"gen":10,"map":%q}`, req.Map),
	} {
		st, resp, _ := postJSON(t, ts.URL+"/v1/migrate", body)
		if st != http.StatusOK || resp.Exit != 1 {
			t.Fatalf("%s: status %d exit %d, want 200 with exit 1", body, st, resp.Exit)
		}
		if !strings.Contains(resp.Error, "not accepted over HTTP") {
			t.Fatalf("%s: error %q is not the path refusal", body, resp.Error)
		}
		if resp.Output != "" {
			t.Fatalf("%s: engine ran despite path fields: %q", body, resp.Output)
		}
	}
}

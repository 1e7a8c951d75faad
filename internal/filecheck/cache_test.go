package filecheck

import (
	"os"
	"strings"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/memo"
	"cadinterop/internal/obs"
)

// TestFilesOptsWarmCacheIdentical vets the corpus twice through one cache:
// the warm run must hit for every file and reproduce the cold run's output
// and error byte-for-byte — including failing files, whose abort verdicts
// are cached too.
func TestFilesOptsWarmCacheIdentical(t *testing.T) {
	paths := writeCorpus(t)
	for _, mode := range []diag.Mode{diag.Strict, diag.Lenient} {
		cache := memo.New(nil)
		var cold strings.Builder
		coldErr := FilesOpts(&cold, paths, Options{Mode: mode, Jobs: 1, Cache: cache})
		if cache.Hits() != 0 || cache.Misses() != int64(len(paths)) {
			t.Fatalf("%s cold: hits=%d misses=%d", mode, cache.Hits(), cache.Misses())
		}
		var warm strings.Builder
		warmErr := FilesOpts(&warm, paths, Options{Mode: mode, Jobs: 4, Cache: cache})
		if cache.Hits() != int64(len(paths)) {
			t.Errorf("%s warm hits = %d, want %d", mode, cache.Hits(), len(paths))
		}
		if warm.String() != cold.String() {
			t.Errorf("%s warm output diverged:\n--- cold ---\n%s--- warm ---\n%s",
				mode, cold.String(), warm.String())
		}
		if (warmErr == nil) != (coldErr == nil) || (warmErr != nil && warmErr.Error() != coldErr.Error()) {
			t.Errorf("%s warm err = %v, want %v", mode, warmErr, coldErr)
		}
	}
}

// TestVetCacheInvalidation: editing a file's bytes or flipping a semantic
// option must miss; an unchanged re-vet must hit. An entry stored under
// a key of another payload version — here the tool "filecheck" that keys
// predating vetHeader carried — is never read.
func TestVetCacheInvalidation(t *testing.T) {
	paths := writeCorpus(t)
	p := paths[0] // a_good.edf
	cache := memo.New(nil)
	opts := Options{Mode: diag.Strict, Cache: cache}

	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	stale := vetKey(p, data, diag.Strict)
	stale.Tool = "filecheck"
	cache.Put(stale, encodeVet("stale block\n", nil))
	if text, err := vetFile(p, opts); err != nil || strings.Contains(text, "stale") {
		t.Fatalf("vet = %q, %v; read the entry of another version", text, err)
	}
	if cache.Hits() != 0 {
		t.Fatalf("the entry of another version hit")
	}
	if _, err := vetFile(p, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 {
		t.Fatalf("unchanged re-vet: hits = %d, want 1", cache.Hits())
	}
	// Mode flip: same bytes, different verdict policy.
	if _, err := vetFile(p, Options{Mode: diag.Lenient, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 {
		t.Errorf("mode flip hit the strict entry")
	}
	// Content edit.
	if err := os.WriteFile(p, []byte("(edif d2 (cell c (interface) (primitive)))"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vetFile(p, opts); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 {
		t.Errorf("content edit hit the stale entry")
	}
}

// TestVetCodecRejectsGarbage: unusable entries are treated as misses.
func TestVetCodecRejectsGarbage(t *testing.T) {
	if _, _, ok := decodeVet([]byte("no newline")); ok {
		t.Error("missing frame decoded")
	}
	if _, _, ok := decodeVet([]byte("wrong/v1 \"\"\ntext")); ok {
		t.Error("wrong header decoded")
	}
	if _, _, ok := decodeVet([]byte(vetHeader + " notquoted\ntext")); ok {
		t.Error("unquoted message decoded")
	}
	text, err, ok := decodeVet(encodeVet("block\n", nil))
	if !ok || err != nil || text != "block\n" {
		t.Errorf("clean round trip: %q %v %v", text, err, ok)
	}
	text, err, ok = decodeVet(encodeVet("block\n", os.ErrNotExist))
	if !ok || err == nil || err.Error() != os.ErrNotExist.Error() || text != "block\n" {
		t.Errorf("abort round trip: %q %v %v", text, err, ok)
	}
}

// TestVetCacheDamagedEntryIsMiss: bytes under a vet's key that do not
// decode answer like a cold vet and count as a miss, not a hit, and the
// clean result overwrites them, so the next vet is a hit.
func TestVetCacheDamagedEntryIsMiss(t *testing.T) {
	p := writeCorpus(t)[0]
	cold, coldErr := vetFile(p, Options{Mode: diag.Strict})
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{"", "garbage", "filecheck/v0 \"\"\nblock\n", vetHeader + " notquoted\nblock\n"} {
		reg := obs.NewRegistry()
		cache := memo.New(reg)
		cache.Put(vetKey(p, data, diag.Strict), []byte(payload))
		for run := 1; run <= 2; run++ {
			text, err := vetFile(p, Options{Mode: diag.Strict, Cache: cache})
			if text != cold || (err == nil) != (coldErr == nil) {
				t.Errorf("%q run %d: %q, %v; want the cold %q, %v", payload, run, text, err, cold, coldErr)
			}
		}
		counts := []int64{reg.Counter("memo.hits").Value(), reg.Counter("memo.misses").Value(), reg.Counter("memo.puts").Value()}
		if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 {
			t.Errorf("%q: hits, misses, puts = %v; want 1, 1, 2", payload, counts)
		}
		clean := reg.Counter("memo.put_bytes").Value() - int64(len(payload))
		if hitBytes := reg.Counter("memo.hit_bytes").Value(); hitBytes != clean {
			t.Errorf("%q: %d hit bytes, want the clean entry's %d", payload, hitBytes, clean)
		}
	}
}

package filecheck

import (
	"os"
	"strings"
	"testing"

	"cadinterop/internal/diag"
	"cadinterop/internal/memo"
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
// option must miss; an unchanged re-vet must hit.
func TestVetCacheInvalidation(t *testing.T) {
	paths := writeCorpus(t)
	p := paths[0] // a_good.edf
	cache := memo.New(nil)
	opts := Options{Mode: diag.Strict, Cache: cache}

	if _, err := vetFile(p, opts); err != nil {
		t.Fatal(err)
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

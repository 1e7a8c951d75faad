package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cadinterop/internal/frame"
	"cadinterop/internal/obs"
)

func TestMemoryHitMiss(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)
	k := Key{Content: "abc", Tool: "route", Options: "fp1"}
	if _, ok := c.Get(k, nil); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, []byte("payload"))
	v, ok := c.Get(k, nil)
	if !ok || string(v) != "payload" {
		t.Fatalf("Get = %q, %v; want payload hit", v, ok)
	}
	// Bytes the caller rejects are a miss, not a hit.
	if _, ok := c.Get(k, func([]byte) bool { return false }); ok {
		t.Error("a rejected entry hit")
	}
	// Any single component flip must miss.
	for _, k2 := range []Key{
		{Content: "abd", Tool: "route", Options: "fp1"},
		{Content: "abc", Tool: "migrate", Options: "fp1"},
		{Content: "abc", Tool: "route", Options: "fp2"},
	} {
		if _, ok := c.Get(k2, nil); ok {
			t.Errorf("key %+v unexpectedly hit", k2)
		}
	}
	if c.Hits() != 1 || c.Misses() != 5 {
		t.Errorf("hits/misses = %d/%d, want 1/5", c.Hits(), c.Misses())
	}
	if got, want := c.HitRate(), 1.0/6; got != want {
		t.Errorf("HitRate = %v, want %v", got, want)
	}
	if v := reg.Counter("memo.hits").Value(); v != 1 {
		t.Errorf("memo.hits counter = %d, want 1", v)
	}
	if v := reg.Counter("memo.misses").Value(); v != 5 {
		t.Errorf("memo.misses counter = %d, want 5", v)
	}
	if v := reg.Counter("memo.hit_bytes").Value(); v != int64(len("payload")) {
		t.Errorf("memo.hit_bytes counter = %d, want %d", v, len("payload"))
	}
	if v := reg.Counter("memo.puts").Value(); v != 1 {
		t.Errorf("memo.puts counter = %d, want 1", v)
	}
	if v := reg.Counter("memo.put_bytes").Value(); v != int64(len("payload")) {
		t.Errorf("memo.put_bytes counter = %d, want %d", v, len("payload"))
	}
}

// TestKeyFraming: the key triple is length-framed, so shifting bytes
// between adjacent components must not collide.
func TestKeyFraming(t *testing.T) {
	a := Key{Content: "ab", Tool: "c", Options: "d"}
	b := Key{Content: "a", Tool: "bc", Options: "d"}
	if a.id() == b.id() {
		t.Fatal("length framing failed: shifted components collide")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Content: "sha", Tool: "route", Options: "fp"}
	// Payloads with and without trailing newline, empty, and one that
	// embeds a fake trailer line — the trailer split must not be fooled.
	payloads := [][]byte{
		[]byte("line1\nline2\n"),
		[]byte("no trailing newline"),
		{},
		[]byte("x\n; integrity sha256:" + strings.Repeat("0", 64) + " bytes=1\ny"),
	}
	for i, p := range payloads {
		ki := k
		ki.Content = k.Content + string(rune('a'+i))
		c1.Put(ki, p)
	}
	// A second cache over the same directory must serve every entry from
	// disk with the payload intact.
	c2, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		ki := k
		ki.Content = k.Content + string(rune('a'+i))
		v, ok := c2.Get(ki, nil)
		if !ok || string(v) != string(p) {
			t.Errorf("payload %d: disk Get = %q, %v; want %q", i, v, ok, p)
		}
	}
	if c2.Hits() != int64(len(payloads)) {
		t.Errorf("disk hits = %d, want %d", c2.Hits(), len(payloads))
	}
}

// TestWriteEntryDurabilityOrder pins the crash-safety protocol of a disk
// Put: the temp file's data must reach disk (fsync) before the rename
// publishes it under the final name, and the parent directory is synced
// after the rename. Rename-before-sync is the classic bug — the name
// change can be journaled while the data is still in the page cache, so a
// power loss resurrects the entry as zeros.
func TestWriteEntryDurabilityOrder(t *testing.T) {
	origFile, origDir := frame.SyncFile, frame.SyncDir
	defer func() { frame.SyncFile, frame.SyncDir = origFile, origDir }()

	dir := t.TempDir()
	k := Key{Content: "sha", Tool: "route", Options: "fp"}
	path := filepath.Join(dir, k.id())
	published := func() bool { _, err := os.Stat(path); return err == nil }
	var order []string
	frame.SyncFile = func(f *os.File) error {
		order = append(order, fmt.Sprintf("sync-file published=%v", published()))
		return origFile(f)
	}
	frame.SyncDir = func(d string) error {
		order = append(order, fmt.Sprintf("sync-dir published=%v", published()))
		return origDir(d)
	}

	c, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(k, []byte("durable payload"))

	want := []string{"sync-file published=false", "sync-dir published=true"}
	if len(order) != len(want) {
		t.Fatalf("durability steps = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("durability step %d = %s, want %s (full order %v)", i, order[i], want[i], order)
		}
	}
	// And the published entry reads back clean.
	c2, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(k, nil); !ok || string(got) != "durable payload" {
		t.Fatalf("disk Get = %q, %v", got, ok)
	}
}

// TestWriteEntrySyncFailureAborts: if the data fsync fails, the rename
// must never happen — publishing an unsynced entry is the exact failure
// the protocol exists to prevent. The put still lands in memory.
func TestWriteEntrySyncFailureAborts(t *testing.T) {
	origFile := frame.SyncFile
	defer func() { frame.SyncFile = origFile }()
	frame.SyncFile = func(f *os.File) error { return fmt.Errorf("disk full") }

	dir := t.TempDir()
	c, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Content: "sha", Tool: "route", Options: "fp"}
	c.Put(k, []byte("payload"))
	// No entry was published, and the temp file was cleaned up, not
	// leaked.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("aborted write left files: %v", ents)
	}
	if v, ok := c.Get(k, nil); !ok || string(v) != "payload" {
		t.Fatalf("Get after a failed disk write = %q, %v; want the in-memory entry", v, ok)
	}
}

func TestDiskCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Content: "sha", Tool: "route", Options: "fp"}
	c.Put(k, []byte("precious payload bytes"))
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v ents, err %v; want exactly 1 entry", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"flipped payload byte": append([]byte("X"), orig[1:]...),
		"truncated":            orig[:len(orig)-5],
		"trailer stripped":     orig[:22],
		"empty":                {},
	}
	for name, data := range corruptions {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := fresh.Get(k, nil); ok {
			t.Errorf("%s: corrupt entry served as hit (%q)", name, v)
		}
	}
	// Restoring the original bytes restores the hit.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get(k, nil); !ok || string(v) != "precious payload bytes" {
		t.Errorf("restored entry Get = %q, %v; want hit", v, ok)
	}
}

// TestConcurrentWritersOneKey hammers a single key from N goroutines
// spread over independent Cache instances sharing one directory — the
// daemon picture (many requests, one cache dir) and the two-process
// `-cache-dir` picture at once. Writers race distinct payloads for the
// same entry file; readers poll it the whole time. With a fixed
// `path+".tmp"` temp name two writers could interleave truncate/rename
// and publish a torn file; with per-writer temp files every observed
// read must pass the integrity trailer and equal one of the payloads
// that was actually written.
func TestConcurrentWritersOneKey(t *testing.T) {
	dir := t.TempDir()
	k := Key{Content: "contended", Tool: "route", Options: "fp"}
	const writers, rounds = 8, 40

	payloads := make([][]byte, writers)
	valid := make(map[string]bool, writers)
	for i := range payloads {
		payloads[i] = []byte(strings.Repeat(fmt.Sprintf("writer %d payload\n", i), i+1))
		valid[string(payloads[i])] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn atomic.Int64
	var served atomic.Int64
	// Readers: fresh caches so every Get goes to disk, not memory.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := NewDir(dir, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if v, ok := c.Get(k, nil); ok {
					served.Add(1)
					if !valid[string(v)] {
						torn.Add(1)
					}
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			for n := 0; n < rounds; n++ {
				c, err := NewDir(dir, nil)
				if err != nil {
					t.Error(err)
					return
				}
				c.Put(k, payloads[i])
			}
		}(i)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn reads served past the integrity trailer", torn.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no reads overlapped the writes; test proved nothing")
	}
	// After the dust settles the entry must verify and hold a real payload,
	// and no temp files may be left behind.
	c, err := NewDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k, nil)
	if !ok || !valid[string(v)] {
		t.Fatalf("final Get = %q, %v; want one of the written payloads", v, ok)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stale temp file left behind: %s", e.Name())
		}
	}
}

func TestNilCacheNoOp(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{Content: "x"}, nil); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{Content: "x"}, []byte("y"))
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatal("nil cache counted something")
	}
}

func TestFPFields(t *testing.T) {
	base := func() string {
		return NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true, "off": false}).Sum()
	}
	if base() != base() {
		t.Fatal("fingerprint not deterministic")
	}
	// Map iteration order must not matter; false set entries hash as absent.
	same := NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", true).
		Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k2": "v2", "k1": "v1"}).
		BoolSet("set", map[string]bool{"on": true}).Sum()
	if same != base() {
		t.Fatal("insertion order or false set entries changed the fingerprint")
	}
	flips := map[string]string{
		"kind": NewFP("test/v2").Str("s", "v").Int("i", 3).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"str": NewFP("test/v1").Str("s", "w").Int("i", 3).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"int": NewFP("test/v1").Str("s", "v").Int("i", 4).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"bool": NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", false).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"list order": NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", true).
			Strs("list", []string{"b", "a"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"map value": NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "vX"}).
			BoolSet("set", map[string]bool{"on": true}).Sum(),
		"set member": NewFP("test/v1").Str("s", "v").Int("i", 3).Bool("b", true).
			Strs("list", []string{"a", "b"}).StrMap("m", map[string]string{"k1": "v1", "k2": "v2"}).
			BoolSet("set", map[string]bool{"on": true, "extra": true}).Sum(),
	}
	seen := map[string]string{base(): "base"}
	for name, sum := range flips {
		if prev, dup := seen[sum]; dup {
			t.Errorf("flip %q collides with %q", name, prev)
		}
		seen[sum] = name
	}
}

// TestFPFraming: adjacent fields must be framed — moving bytes between a
// field's name and value, or between two list elements, must change the sum.
func TestFPFraming(t *testing.T) {
	a := NewFP("t").Str("ab", "c").Sum()
	b := NewFP("t").Str("a", "bc").Sum()
	if a == b {
		t.Fatal("name/value framing failed")
	}
	c := NewFP("t").Strs("l", []string{"ab", "c"}).Sum()
	d := NewFP("t").Strs("l", []string{"a", "bc"}).Sum()
	if c == d {
		t.Fatal("list element framing failed")
	}
}

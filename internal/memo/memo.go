// Package memo is a deterministic content-addressed result cache for tool
// runs. A cached value is identified by the triple (content, tool,
// options): the sha256 of the canonical exchange bytes of the input, the
// executing tool's name, and a canonical fingerprint of the options that
// affect its output (see fp.go). Because every key component is derived
// from content rather than identity — no timestamps, no paths, no pointer
// addresses — two runs over equal inputs hit the same entry on any
// machine, which is exactly the dependency-aware caching the steady-state
// O(dirty) story needs (DESIGN.md §5h).
//
// The cache is nil-safe: a nil *Cache is a no-op on every method, so call
// sites thread it unconditionally and pay one nil check when disabled
// (the AllocsPerRun=0 contract in memo_test.go). A non-nil cache always
// has an in-memory store; NewDir adds a persistent on-disk layout where
// each entry carries the interchange integrity trailer and is re-verified
// on read-back — a corrupt or truncated file is a miss, never bad data.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"cadinterop/internal/frame"
	"cadinterop/internal/obs"
)

// Key identifies one cached tool result.
type Key struct {
	// Content is the sha256 (hex) of the canonical serialized input —
	// exchange bytes for netlists, cd bytes for schematics.
	Content string
	// Tool names the producing tool ("route", "migrate", "backplane:CadA", …).
	Tool string
	// Options is the canonical fingerprint of the options that affect the
	// tool's output (memo.FP); concurrency knobs and observability handles
	// must not be part of it.
	Options string
}

// id collapses the triple into one content address. Fields are
// length-framed so no two distinct triples can collide by concatenation.
func (k Key) id() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s|%d:%s|%d:%s", len(k.Content), k.Content, len(k.Tool), k.Tool, len(k.Options), k.Options)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a content-addressed store of tool results. Zero value is not
// usable; construct with New or NewDir. All methods are safe for
// concurrent use and safe on a nil receiver.
type Cache struct {
	mu  sync.Mutex
	mem map[string][]byte
	dir string // "" = memory only

	hits, misses, puts int64

	cHits, cMisses, cPuts *obs.Counter
	cHitBytes, cPutBytes  *obs.Counter
}

// New returns an in-memory cache. Counters land in reg (nil = disabled):
// memo.hits, memo.misses, memo.puts, memo.hit_bytes, memo.put_bytes.
func New(reg *obs.Registry) *Cache {
	return &Cache{
		mem:       make(map[string][]byte),
		cHits:     reg.Counter("memo.hits"),
		cMisses:   reg.Counter("memo.misses"),
		cPuts:     reg.Counter("memo.puts"),
		cHitBytes: reg.Counter("memo.hit_bytes"),
		cPutBytes: reg.Counter("memo.put_bytes"),
	}
}

// NewDir returns a cache backed by dir: entries written there survive the
// process and seed later runs. The directory is created if missing.
func NewDir(dir string, reg *obs.Registry) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: cache dir: %w", err)
	}
	c := New(reg)
	c.dir = dir
	return c, nil
}

// Get returns the cached payload for k, or (nil, false) on a miss. The
// in-memory store is consulted first; on-disk entries are integrity-checked
// and promoted into memory on hit. accept (nil = any bytes) is the
// caller's check of the payload: bytes it rejects count as a miss, and
// only accepted bytes count toward memo.hits and memo.hit_bytes, so the
// counters report answers the cache gave. A nil cache always misses
// without counting anything.
func (c *Cache) Get(k Key, accept func([]byte) bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	id := k.id()
	c.mu.Lock()
	v, ok := c.mem[id]
	c.mu.Unlock()
	fromDisk := false
	if !ok && c.dir != "" {
		if data, err := os.ReadFile(filepath.Join(c.dir, id)); err == nil {
			v, ok = frame.Open(data, "integrity", entryFields)
			fromDisk = ok
		}
	}
	if ok && accept != nil {
		ok = accept(v)
	}
	c.mu.Lock()
	if ok {
		if fromDisk {
			c.mem[id] = v
		}
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		c.cMisses.Inc()
		return nil, false
	}
	c.cHits.Inc()
	c.cHitBytes.Add(int64(len(v)))
	return v, true
}

// Put stores payload under k. The payload is copied, so callers may reuse
// their buffer. On a disk-backed cache the entry is written with the
// integrity trailer through frame.WriteFile, so a crashed writer leaves a
// missing entry, never a torn one. Disk write failures degrade to
// memory-only silently: a cache must never fail the tool run it serves.
func (c *Cache) Put(k Key, payload []byte) {
	if c == nil {
		return
	}
	id := k.id()
	cp := append([]byte(nil), payload...)
	c.mu.Lock()
	c.mem[id] = cp
	c.puts++
	c.mu.Unlock()
	c.cPuts.Inc()
	c.cPutBytes.Add(int64(len(cp)))
	if c.dir != "" {
		frame.WriteFile(filepath.Join(c.dir, id), frame.Seal(cp, "integrity", entryFields(cp)), 0o644)
	}
}

// Hits returns the lookups served from the cache so far.
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the lookups that fell through so far.
func (c *Cache) Misses() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.hits + c.misses; t > 0 {
		return float64(c.hits) / float64(t)
	}
	return 0
}

// entryFields renders the fields of a disk entry's trailer. An entry is
// one file, named by the key's content address, holding the payload
// sealed by the integrity frame (internal/frame):
//
//	<payload bytes>; integrity sha256:<hex of payload> bytes=<len payload>\n
//
// A corrupt or truncated entry fails the frame's check and reads as a miss.
func entryFields(payload []byte) string { return "bytes=" + strconv.Itoa(len(payload)) }

package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The result cache is the content-addressed half of the sweep service:
// one completed cell's row, keyed by everything that determines it and
// nothing that doesn't. A checkpoint is keyed by the whole grid's
// fingerprint, so it only ever serves an exact resubmission; the cell
// cache is keyed per cell, so *overlapping* grids — the same design
// points swept again with more reps, or submitted by a different client
// — reuse every cell they share and compute only the new ones. The
// cache stores each row's JSON as is; the grid kind that owns the key
// (SweepAxes' CellFingerprint, a hunt cell's key) encodes and decodes
// it. The file layout is the checkpoint's: JSONL with a header line,
// O(1) appends, and the crash signature confined to one torn trailing
// line that load salvages away.

// cellCacheFormat identifies the cache file layout; bump on changes.
const cellCacheFormat = "metaleak-cellcache/v1"

type cacheEntry struct {
	Key string
	Row json.RawMessage
}

// ResultCache is a content-addressed store of completed cell rows,
// optionally persisted as JSONL. Only clean measurements are cached —
// a failed cell may have failed transiently, and a later sweep deserves
// its retry. Safe for concurrent use.
//
// With a byte cap (OpenResultCacheCap) the cache garbage-collects
// itself: once its canonical footprint exceeds the cap, the oldest
// entries are evicted first — an evicted cell simply recomputes on its
// next request — and the file is compacted atomically (written to a
// sibling temp file, then renamed over), so a crash at any point leaves
// either the old complete file or the new complete file, never a mix.
type ResultCache struct {
	mu        sync.Mutex
	rows      map[string]json.RawMessage
	order     []string         // insertion order, oldest first; eviction order
	sizes     map[string]int64 // canonical per-entry footprint (line + '\n')
	bytes     int64            // canonical footprint: header + all entry lines
	maxBytes  int64            // GC threshold; 0 = unbounded
	evictions int
	out       jsonlFile // path "" = memory-only
	discarded string    // torn trailing line salvaged away at open
	err       error     // first persistence failure; appends stop after it
}

// OpenResultCache opens (or starts) a persisted result cache at path,
// or a memory-only cache when path is empty. A missing or empty file
// begins an empty cache; an existing one must be well-formed apart from
// the append discipline's own crash signature — an unterminated
// trailing line, which is salvaged (cut off, reported via Discarded)
// instead of failing the open. The cache is unbounded; see
// OpenResultCacheCap for the size-capped variant.
func OpenResultCache(path string) (*ResultCache, error) {
	return OpenResultCacheCap(path, 0)
}

// OpenResultCacheCap is OpenResultCache with a garbage-collection cap:
// whenever the cache's canonical footprint exceeds maxBytes (0 =
// unbounded), the oldest entries are evicted until it fits and the file
// is compacted. An inherited over-cap file is trimmed at open.
func OpenResultCacheCap(path string, maxBytes int64) (*ResultCache, error) {
	hdrLine, err := json.Marshal(struct{ Format string }{cellCacheFormat})
	if err != nil {
		return nil, err
	}
	rc := &ResultCache{
		rows:     map[string]json.RawMessage{},
		sizes:    map[string]int64{},
		bytes:    int64(len(hdrLine)) + 1,
		maxBytes: maxBytes,
		out:      jsonlFile{path: path, what: "result cache", header: hdrLine},
	}
	if path == "" {
		return rc, nil
	}
	rc.discarded, err = readJSONL(path, "result cache", func(line []byte) error {
		var hdr struct{ Format string }
		if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != cellCacheFormat {
			return fmt.Errorf("not a %s file", cellCacheFormat)
		}
		return nil
	}, func(line []byte) error {
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if len(e.Key) != sha256.Size*2 {
			return fmt.Errorf("malformed key %q", e.Key)
		}
		var status struct{ Err string }
		if err := json.Unmarshal(e.Row, &status); err != nil {
			return err
		}
		if status.Err != "" {
			return fmt.Errorf("cached row carries an error (%q) — only clean measurements belong here", status.Err)
		}
		canon, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if old, ok := rc.sizes[e.Key]; ok {
			// Duplicates allowed, last wins — and the later line is the
			// younger one, so refresh its age for eviction purposes.
			rc.bytes -= old
			for i, k := range rc.order {
				if k == e.Key {
					rc.order = append(rc.order[:i], rc.order[i+1:]...)
					break
				}
			}
		}
		rc.rows[e.Key] = e.Row
		rc.sizes[e.Key] = int64(len(canon)) + 1
		rc.bytes += rc.sizes[e.Key]
		rc.order = append(rc.order, e.Key)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// An inherited file over the cap trims immediately, so a restarted
	// service with a lowered cap converges without waiting for traffic.
	if err := rc.gcLocked(); err != nil {
		return nil, err
	}
	return rc, nil
}

// Get returns the JSON of the row cached under a cell key. Its grid
// index is meaningless (normalized to 0 when it was put): the caller
// decodes it and re-stamps its own grid's index, which the key
// guarantees is the only field that can differ.
func (rc *ResultCache) Get(key string) (json.RawMessage, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	row, ok := rc.rows[key]
	return row, ok
}

// Put records one completed cell's row, stored as its JSON. Callers put
// only clean measurements with the grid index zeroed (a failure may be
// transient; never serve it from cache). Keys already present are
// ignored — re-running a cached grid must not grow the file. Under a
// byte cap, an insert that pushes the footprint over it evicts the
// oldest entries and compacts the file.
func (rc *ResultCache) Put(key string, row any) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.rows[key]; ok {
		return
	}
	raw, err := json.Marshal(row)
	var line []byte
	if err == nil {
		line, err = json.Marshal(cacheEntry{Key: key, Row: raw})
	}
	if err != nil {
		if rc.err == nil {
			rc.err = err
		}
		return
	}
	rc.rows[key] = raw
	rc.sizes[key] = int64(len(line)) + 1
	rc.bytes += rc.sizes[key]
	rc.order = append(rc.order, key)
	if rc.out.path != "" && rc.err == nil {
		rc.err = rc.out.append(line)
	}
	if err := rc.gcLocked(); err != nil && rc.err == nil {
		rc.err = err
	}
}

// Len returns the number of cached cells.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.rows)
}

// Bytes returns the cache's canonical footprint: the file size a
// freshly compacted cache would occupy (header plus one line per
// entry). An append-only file with superseded duplicates can be
// larger until the next GC compaction rewrites it.
func (rc *ResultCache) Bytes() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.bytes
}

// Evictions returns how many entries the byte-cap GC has dropped.
func (rc *ResultCache) Evictions() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.evictions
}

// gcLocked evicts oldest-first until the footprint fits the cap, then
// compacts the file. The newest entry always survives, even if it
// alone exceeds the cap — evicting it would make the cache useless at
// any cap smaller than one row.
func (rc *ResultCache) gcLocked() error {
	if rc.maxBytes <= 0 || rc.bytes <= rc.maxBytes {
		return nil
	}
	for len(rc.order) > 1 && rc.bytes > rc.maxBytes {
		key := rc.order[0]
		rc.order = rc.order[1:]
		rc.bytes -= rc.sizes[key]
		delete(rc.rows, key)
		delete(rc.sizes, key)
		rc.evictions++
	}
	if rc.out.path == "" || rc.err != nil {
		return nil // memory-only, or persistence already failed
	}
	return rc.compactLocked()
}

// compactLocked rewrites the file to exactly the surviving entries —
// header plus one line per entry in age order — via a sibling temp file
// renamed over the original. The rename is atomic, so a crash at any
// point leaves either the old complete file or the new complete file;
// either opens cleanly, the torn-line salvage never has to run on a
// compaction.
func (rc *ResultCache) compactLocked() error {
	var buf bytes.Buffer
	buf.Write(rc.out.header)
	buf.WriteByte('\n')
	for _, key := range rc.order {
		line, err := json.Marshal(cacheEntry{Key: key, Row: rc.rows[key]})
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := rc.out.path + ".gc"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("result cache %s: compacting: %w", rc.out.path, err)
	}
	rc.out.close() // the next append reopens the compacted file
	if err := os.Rename(tmp, rc.out.path); err != nil {
		return fmt.Errorf("result cache %s: compacting: %w", rc.out.path, err)
	}
	rc.bytes = int64(buf.Len())
	return nil
}

// Discarded returns the torn trailing line OpenResultCache salvaged
// away, if any — callers surface it as a warning so the data loss
// (exactly one re-computable cell) is visible, not silent.
func (rc *ResultCache) Discarded() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.discarded
}

// Err returns the first persistence failure, if any. The cache keeps
// serving from memory after one — persistence is an optimization, not
// correctness.
func (rc *ResultCache) Err() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.err
}

// Close releases the append handle. The file needs no finalization —
// every append left it complete.
func (rc *ResultCache) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.out.close()
}

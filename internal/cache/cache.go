// Package cache implements the set-associative caches of the simulated
// machine: the private L1/L2, the shared L3, and the memory controller's
// shared metadata cache that holds encryption counter blocks and integrity
// tree node blocks.
//
// A Cache tracks block identity and dirtiness only; block contents live in
// the secure memory controller's backing store. Evictions are reported to
// the caller so the controller can perform write-backs (which is where the
// lazy integrity tree update of §V of the paper happens).
package cache

import (
	"fmt"

	"metaleak/internal/arch"
)

// Policy selects the replacement policy for a cache.
type Policy int

const (
	// LRU replaces the least recently used way.
	LRU Policy = iota
	// Random replaces a uniformly random way.
	Random
)

// Config describes one cache instance.
type Config struct {
	Name       string      // for diagnostics ("L1", "meta", ...)
	SizeBytes  int         // total capacity
	Ways       int         // associativity
	HitLatency arch.Cycles // access latency on hit
	Policy     Policy
	Seed       uint64 // RNG seed for Random policy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / arch.BlockSize / c.Ways }

// Eviction describes a block displaced by an Insert.
type Eviction struct {
	Block arch.BlockID
	Dirty bool
}

// Stats counts cache events since construction.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// line is one way of a set. stamp packs the line's last-use tick with its
// flags (tick<<2 | dirty | valid), which keeps a line at 16 bytes — the
// L3's line array is a third smaller than with separate fields. Every
// access or fill takes a fresh tick, so no two valid lines share one and
// comparing stamps orders valid lines by recency.
type line struct {
	block arch.BlockID
	stamp uint64
}

const (
	validBit uint64 = 1
	dirtyBit uint64 = 2
	flagBits        = 2 // low stamp bits holding the flags
)

func (l *line) valid() bool { return l.stamp&validBit != 0 }
func (l *line) dirty() bool { return l.stamp&dirtyBit != 0 }

// touch stamps the line with the current tick, keeping it valid and
// adding dirty (when set) to its dirty state.
func (l *line) touch(tick uint64, dirty bool) {
	l.stamp = tick<<flagBits | l.stamp&dirtyBit | validBit
	if dirty {
		l.stamp |= dirtyBit
	}
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded by design (determinism).
//
// The lines live in one flat set-major array (set si occupies
// lines[si*ways : (si+1)*ways]) that is allocated by the first Insert. A
// cache that is never filled — an idle core's L1/L2, the metadata cache of
// an insecure baseline — costs no line storage, and every query treats the
// nil array as an empty cache.
type Cache struct {
	cfg   Config
	mask  uint64 // sets-1; the set count is a power of two
	ways  int
	lines []line
	tick  uint64
	rng   *arch.RNG
	stats Stats
}

// New builds a cache from the configuration. It panics on a configuration
// that does not describe a whole power-of-two number of sets, since the
// index function relies on it, or whose size is not an exact multiple of
// BlockSize×Ways — integer truncation in Sets() would otherwise silently
// shrink capacity whenever the truncated set count happens to land on a
// power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	if cfg.SizeBytes%(arch.BlockSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d B is not a multiple of block size %d x %d ways",
			cfg.Name, cfg.SizeBytes, arch.BlockSize, cfg.Ways))
	}
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, n))
	}
	return &Cache{cfg: cfg, mask: uint64(n - 1), ways: cfg.Ways, rng: arch.NewRNG(cfg.Seed ^ 0xcafe)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetIndex returns the set a block maps to.
func (c *Cache) SetIndex(b arch.BlockID) int {
	return int(uint64(b) & c.mask)
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() arch.Cycles { return c.cfg.HitLatency }

// set returns the ways of the set a block maps to, or nil while the cache
// has never been filled.
func (c *Cache) set(b arch.BlockID) []line {
	if c.lines == nil {
		return nil
	}
	base := c.SetIndex(b) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// find returns the line holding b, or nil when b is not resident.
func (c *Cache) find(b arch.BlockID) *line {
	set := c.set(b)
	for wi := range set {
		if set[wi].valid() && set[wi].block == b {
			return &set[wi]
		}
	}
	return nil
}

// Contains reports whether the block is present without updating
// replacement state. It exists for the simulator's introspection and for
// tests; real accesses go through Access/Insert.
func (c *Cache) Contains(b arch.BlockID) bool {
	return c.find(b) != nil
}

// Access looks up the block, updating replacement state and statistics.
// If write is true and the block hits, the line is marked dirty.
// It returns whether the access hit.
func (c *Cache) Access(b arch.BlockID, write bool) bool {
	l := c.find(b)
	if l == nil {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	l.touch(c.tick, write)
	return true
}

// Insert places the block into the cache (after a miss) and returns the
// eviction it caused, if any. If the block is already present the line is
// refreshed in place and no eviction occurs. The dirty flag marks the newly
// inserted line (true for write allocations).
func (c *Cache) Insert(b arch.BlockID, dirty bool) (Eviction, bool) {
	c.tick++
	if l := c.find(b); l != nil {
		l.touch(c.tick, dirty)
		return Eviction{}, false
	}
	if c.lines == nil {
		c.lines = make([]line, int(c.mask+1)*c.ways)
	}
	set := c.set(b)
	// Choose a victim: an invalid way if one exists, else by policy.
	victim := -1
	for i := range set {
		if !set[i].valid() {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		switch c.cfg.Policy {
		case Random:
			victim = c.rng.Intn(c.ways)
		default: // LRU
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].stamp < set[victim].stamp {
					victim = i
				}
			}
		}
		l := &set[victim]
		ev = Eviction{Block: l.block, Dirty: l.dirty()}
		evicted = true
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{block: b}
	set[victim].touch(c.tick, dirty)
	return ev, evicted
}

// Invalidate removes the block if present and returns whether it was dirty.
// Unlike a natural eviction the caller decides what to do with the dirty
// state (a flush instruction writes back; an attack helper may drop it).
func (c *Cache) Invalidate(b arch.BlockID) (wasPresent, wasDirty bool) {
	l := c.find(b)
	if l == nil {
		return false, false
	}
	dirty := l.dirty()
	*l = line{}
	return true, dirty
}

// FlushAll invalidates every line, invoking fn (if non-nil) for each dirty
// line before it is dropped so the caller can write it back. Dirty lines
// are visited in set-major, way-minor order.
func (c *Cache) FlushAll(fn func(arch.BlockID)) {
	for i := range c.lines {
		l := c.lines[i]
		if l.valid() && l.dirty() && fn != nil {
			fn(l.block)
		}
		c.lines[i] = line{}
	}
}

// Occupancy returns the number of valid lines in the set that the given
// block maps to — used by tests and by eviction-set construction.
func (c *Cache) Occupancy(b arch.BlockID) int {
	n := 0
	for _, l := range c.set(b) {
		if l.valid() {
			n++
		}
	}
	return n
}

// BlocksInSet returns the valid blocks currently resident in the set that
// the given block maps to, in way order. Diagnostic use only.
func (c *Cache) BlocksInSet(b arch.BlockID) []arch.BlockID {
	var out []arch.BlockID
	for _, l := range c.set(b) {
		if l.valid() {
			out = append(out, l.block)
		}
	}
	return out
}

// Package arch models the micro-architectural components that determine the
// performance behaviour the paper measures with hardware counters: a
// set-associative cache hierarchy, a branch predictor, and machine profiles
// describing the Westmere (Xeon E5645) and Haswell (Xeon E5-2620 v3)
// processors used in the paper's evaluation, plus memory, disk and network
// bandwidth parameters.
//
// The models are deliberately light-weight (they are driven with sampled
// event streams by package sim) but faithful enough that relative behaviour
// — which workload is cache friendly, how much a bigger last-level cache or
// a wider issue width helps — emerges from the model rather than being
// hard-coded.
//
// The cache engine is the innermost loop of every simulated experiment, so
// it is organised for speed: each cache keeps its lines in one contiguous
// slab indexed by set*ways+way, tag/valid/dirty are packed into a single
// word, and the hierarchy is walked iteratively over a fixed level array
// rather than by recursion.  AccessLine is that walk and the only way to
// probe the hierarchy: it moves one line probe down the levels and returns
// the level that hit, and its callers fold the levels into their own
// statistics.
package arch

import "fmt"

// CacheConfig describes one level of a set-associative cache.
type CacheConfig struct {
	Name          string // e.g. "L1D"
	SizeBytes     int    // total capacity
	LineBytes     int    // cache line size
	Associativity int    // ways per set
	LatencyCycles int    // access (hit) latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int {
	if c.LineBytes <= 0 || c.Associativity <= 0 {
		return 0
	}
	sets := c.SizeBytes / (c.LineBytes * c.Associativity)
	if sets < 1 {
		sets = 1
	}
	return sets
}

// Validate reports configuration errors such as non-power-of-two line sizes
// or zero capacity.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("arch: cache %s has non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("arch: cache %s line size %d must be a positive power of two", c.Name, c.LineBytes)
	}
	if c.Associativity <= 0 {
		return fmt.Errorf("arch: cache %s associativity %d must be positive", c.Name, c.Associativity)
	}
	if c.SizeBytes < c.LineBytes*c.Associativity {
		return fmt.Errorf("arch: cache %s size %d smaller than one set", c.Name, c.SizeBytes)
	}
	return nil
}

// maxLevels is the deepest hierarchy a single AccessLine walks (L1 → L2 → L3 →
// one spare).  Chains are fixed at construction, so the walk happens over a
// fixed-size array with no pointer chasing beyond the per-level cache.
const maxLevels = 4

// cacheLine is one way of one set.  tagState packs the line address tag with
// the valid and dirty bits into a single word so a lookup compares one
// machine word; lru holds the owning cache's tick at last use (larger = more
// recently used).
type cacheLine struct {
	tagState uint64
	lru      uint64
}

const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineTagShift = 2
)

// Cache is a set-associative cache with LRU replacement.  It tracks hits and
// misses; on a miss the access is forwarded to the next level (if any).
// Cache is not safe for concurrent use; package sim serialises access.
type Cache struct {
	cfg  CacheConfig
	next *Cache // next level, nil for last level before memory

	// lines is the flat slab of all ways of all sets, indexed set*ways+way.
	lines []cacheLine
	ways  int

	// levels is this cache followed by the levels below it, fixed when the
	// cache is built; AccessLine iterates over it instead of recursing
	// through next pointers.
	levels [maxLevels]*Cache
	depth  int

	hits   uint64
	misses uint64
	// tick is the monotone LRU clock: it advances by one for every line
	// probe of this cache, whatever the outcome.  Because it counts probes
	// (not the hits+misses totals of earlier designs), batched line-granular
	// simulation and per-word simulation see the same recency *order* and
	// therefore make identical replacement decisions.
	tick uint64

	lineMask uint64
	setMask  uint64
	lineBits uint
}

// NewCache builds a cache from its configuration.  next may be nil for the
// last level; when non-nil its own level chain must already be complete,
// which is the natural construction order (memory side first).
func NewCache(cfg CacheConfig, next *Cache) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		next:  next,
		lines: make([]cacheLine, sets*cfg.Associativity),
		ways:  cfg.Associativity,
	}
	c.lineBits = uint(bitsFor(cfg.LineBytes))
	c.lineMask = uint64(cfg.LineBytes - 1)
	c.setMask = uint64(sets - 1)
	c.levels[0] = c
	c.depth = 1
	for lvl := next; lvl != nil; lvl = lvl.next {
		if c.depth == maxLevels {
			panic(fmt.Sprintf("arch: cache %s starts a hierarchy deeper than %d levels", cfg.Name, maxLevels))
		}
		c.levels[c.depth] = lvl
		c.depth++
	}
	return c
}

func bitsFor(v int) int {
	b := 0
	for (1 << b) < v {
		b++
	}
	return b
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Hits returns the number of hits recorded so far.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses recorded so far.
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns hits + misses.
func (c *Cache) Accesses() uint64 { return c.hits + c.misses }

// HitRatio returns the hit ratio observed so far (1 when untouched).
func (c *Cache) HitRatio() float64 {
	total := c.Accesses()
	if total == 0 {
		return 1
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.hits, c.misses, c.tick = 0, 0, 0
}

// probe looks addr's line up in this single level, updating LRU state and
// hit/miss statistics, and refilling the LRU victim on a miss.  It reports
// whether the access hit.
func (c *Cache) probe(addr uint64, write bool) bool {
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.ways
	lines := c.lines[base : base+c.ways]
	c.tick++
	want := tag<<lineTagShift | lineValid
	for i := range lines {
		if lines[i].tagState&^uint64(lineDirty) == want {
			c.hits++
			lines[i].lru = c.tick
			if write {
				lines[i].tagState |= lineDirty
			}
			return true
		}
	}

	// Miss: choose the LRU victim (the first invalid way, else the first way
	// with the smallest stamp) and refill.  The oldest stamp stays in a local
	// so the scan carries no reload of the current victim from one way to
	// the next.
	c.misses++
	victim, oldest := 0, lines[0].lru
	for i := range lines {
		if lines[i].tagState&lineValid == 0 {
			victim = i
			break
		}
		if lru := lines[i].lru; lru < oldest {
			victim, oldest = i, lru
		}
	}
	if write {
		want |= lineDirty
	}
	lines[victim] = cacheLine{tagState: want, lru: c.tick}
	return false
}

// AccessLine pushes one probe of the line holding addr through the level
// array and returns the 0-based level that hit, or the hierarchy's depth
// (Depth) when the probe missed every level and went to memory.  It is the
// only walk of the hierarchy: a multi-line run is one call per line.
func (c *Cache) AccessLine(addr uint64, write bool) int {
	addr &^= c.lineMask
	for i := 0; i < c.depth; i++ {
		if c.levels[i].probe(addr, write) {
			return i
		}
	}
	return c.depth
}

// Depth returns the number of levels from this cache down to memory, the
// level AccessLine reports for a probe that went to memory.
func (c *Cache) Depth() int { return c.depth }

// Hierarchy bundles the per-core caches plus the shared last level cache of
// one core's view of the memory system.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache // shared; may be shared between Hierarchy values
}

// NewHierarchy builds a per-core hierarchy sharing the provided L3.
func NewHierarchy(p Profile, sharedL3 *Cache) Hierarchy {
	l2 := NewCache(p.L2, sharedL3)
	return Hierarchy{
		L1I: NewCache(p.L1I, l2),
		L1D: NewCache(p.L1D, l2),
		L2:  l2,
		L3:  sharedL3,
	}
}

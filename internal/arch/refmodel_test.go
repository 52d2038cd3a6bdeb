package arch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refCache is the slow reference cache model retained for property-checking
// the flat engine: the original pointer-chasing design with a slice of
// slices per set, boolean valid/dirty flags, recursive level forwarding and
// the same monotone per-cache access tick the flat engine uses.  It is
// deliberately written in the naive style so the two implementations share
// no code.
type refCache struct {
	cfg      CacheConfig
	next     *refCache
	sets     [][]refLine
	hits     uint64
	misses   uint64
	tick     uint64
	setMask  uint64
	lineBits uint
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(cfg CacheConfig, next *refCache) *refCache {
	c := &refCache{cfg: cfg, next: next}
	c.sets = make([][]refLine, cfg.Sets())
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Associativity)
	}
	c.lineBits = uint(bitsFor(cfg.LineBytes))
	c.setMask = uint64(cfg.Sets() - 1)
	return c
}

// access probes addr's line down the chain and returns the 0-based level
// that hit, or the chain's depth when every level missed: the level
// Cache.AccessLine reports.
func (c *refCache) access(addr uint64, write bool) int {
	tag := addr >> c.lineBits
	set := tag & c.setMask
	lines := c.sets[set]
	c.tick++

	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.hits++
			lines[i].lru = c.tick
			if write {
				lines[i].dirty = true
			}
			return 0
		}
	}

	c.misses++
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	lines[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}

	if c.next == nil {
		return 1
	}
	return 1 + c.next.access(addr, write)
}

// refWay is one way of one set in a representation both implementations
// can produce: tag, valid and dirty bits and the LRU stamp.
type refWay struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

// wayState returns every way of every set, in way order.  Comparing them
// way by way checks where a fill lands and which stamp it writes, not just
// which lines are resident: both choices reach the bytes of AppendState,
// and with them every checkpoint.
func (c *refCache) wayState() [][]refWay {
	out := make([][]refWay, len(c.sets))
	for s, set := range c.sets {
		for _, l := range set {
			out[s] = append(out[s], refWay{tag: l.tag, valid: l.valid, dirty: l.dirty, lru: l.lru})
		}
	}
	return out
}

// wayState is the flat engine's counterpart of refCache.wayState.
func (c *Cache) wayState() [][]refWay {
	sets := len(c.lines) / c.ways
	out := make([][]refWay, sets)
	for s := 0; s < sets; s++ {
		for _, l := range c.lines[s*c.ways : (s+1)*c.ways] {
			out[s] = append(out[s], refWay{
				tag:   l.tagState >> lineTagShift,
				valid: l.tagState&lineValid != 0,
				dirty: l.tagState&lineDirty != 0,
				lru:   l.lru,
			})
		}
	}
	return out
}

// resident returns the resident lines of every set as sorted (tag, dirty)
// pairs, a representation that is independent of which way a line occupies
// and of the tick it was stamped with.
func (c *Cache) resident() [][]uint64 {
	out := make([][]uint64, len(c.lines)/c.ways)
	for s, set := range c.wayState() {
		for _, w := range set {
			if w.valid {
				v := w.tag << 1
				if w.dirty {
					v |= 1
				}
				out[s] = append(out[s], v)
			}
		}
		sort.Slice(out[s], func(i, j int) bool { return out[s][i] < out[s][j] })
	}
	return out
}

// refHierarchy builds the three-level data-side chain of a profile in both
// implementations.
func refHierarchy(p Profile) (*Cache, *refCache) {
	l3 := NewCache(p.L3, nil)
	l2 := NewCache(p.L2, l3)
	l1 := NewCache(p.L1D, l2)
	r3 := newRefCache(p.L3, nil)
	r2 := newRefCache(p.L2, r3)
	r1 := newRefCache(p.L1D, r2)
	return l1, r1
}

// compareChains checks every level of the two chains: hit and miss counts,
// and every way of every set (tag, valid, dirty, LRU stamp).
func compareChains(t *testing.T, label string, flat *Cache, ref *refCache) {
	t.Helper()
	for lvl := 0; flat != nil; lvl++ {
		if flat.Hits() != ref.hits || flat.Misses() != ref.misses {
			t.Fatalf("%s level %d: flat hits/misses %d/%d, reference %d/%d",
				label, lvl+1, flat.Hits(), flat.Misses(), ref.hits, ref.misses)
		}
		if !reflect.DeepEqual(flat.wayState(), ref.wayState()) {
			t.Fatalf("%s level %d: way contents diverged (victim choices or stamps differ)", label, lvl+1)
		}
		flat, ref = flat.next, ref.next
	}
}

// traceProfiles returns the machine profiles the equivalence properties run
// against, covering both generations used in the paper.
func traceProfiles() map[string]Profile {
	return map[string]Profile{"westmere": Westmere(), "haswell": Haswell()}
}

// Property: the flat engine and the slow reference model agree probe by
// probe on the level that hit, and end with identical per-level hit/miss
// counts and way contents (i.e. identical victim choices and stamps), when
// AccessLine is driven once per word of randomized word-granular traces and
// once per line of randomized sequential runs.
func TestFlatEngineMatchesReferenceOnWordTraces(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			t.Run("AccessLine", func(t *testing.T) {
				flat, ref := refHierarchy(p)
				wordTrace(func(i int, addr uint64, write bool) {
					got, want := flat.AccessLine(addr, write), ref.access(addr, write)
					if got != want {
						t.Fatalf("access %d addr %#x write=%v: flat level %d, reference level %d", i, addr, write, got, want)
					}
				})
				compareChains(t, name, flat, ref)
			})
			t.Run("lines", func(t *testing.T) {
				flat, ref := refHierarchy(p)
				lineBytes := uint64(p.L1D.LineBytes)
				runTrace(func(i int, addr, bytes uint64, write bool) {
					forEachLine(addr, bytes, lineBytes, func(a uint64) {
						got, want := flat.AccessLine(a, write), ref.access(a, write)
						if got != want {
							t.Fatalf("run %d line %#x write=%v: flat level %d, reference level %d", i, a, write, got, want)
						}
					})
				})
				compareChains(t, name, flat, ref)
			})
		})
	}
}

// forEachLine calls probe with the address of every line of lineBytes that
// the bytes-long run at addr touches, in address order.
func forEachLine(addr, bytes, lineBytes uint64, probe func(a uint64)) {
	for a := addr &^ (lineBytes - 1); a < addr+bytes; a += lineBytes {
		probe(a)
	}
}

// wordTrace calls access with a randomized word-granular trace: a mix of hot
// reuse (small working set), streaming and random far accesses, with
// occasional writes.
func wordTrace(access func(i int, addr uint64, write bool)) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60000; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = uint64(rng.Intn(32 * 1024)) // L1-sized hot set
		case 1:
			addr = uint64(i) * 8 // streaming
		default:
			addr = uint64(rng.Intn(64 * 1024 * 1024)) // far random
		}
		access(i, addr, rng.Intn(4) == 0)
	}
}

// runTrace calls run with randomized sequential runs of 1 byte to 8 KiB at
// random addresses, with occasional writes.
func runTrace(run func(i int, addr, bytes uint64, write bool)) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(16 * 1024 * 1024))
		bytes := uint64(1 + rng.Intn(8*1024))
		run(i, addr, bytes, rng.Intn(4) == 0)
	}
}

// Property: driving AccessLine word by word and line by line produces the
// same replacement decisions — the resident lines after a trace of
// sequential runs are identical, even though the per-word drive records the
// intra-line hits that sim.Exec accounts for arithmetically.
func TestBatchedAndPerWordReplacementEquivalence(t *testing.T) {
	for name, p := range traceProfiles() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			batched, _ := refHierarchy(p)
			perWord, _ := refHierarchy(p)
			lineBytes := uint64(p.L1D.LineBytes)
			for i := 0; i < 3000; i++ {
				// Word-aligned runs of whole words, so the per-word drive
				// touches exactly the lines the batched drive probes.
				addr := 8 * uint64(rng.Intn(1024*1024))
				bytes := uint64(8 * (1 + rng.Intn(512)))
				write := rng.Intn(5) == 0
				forEachLine(addr, bytes, lineBytes, func(a uint64) { batched.AccessLine(a, write) })
				for off := uint64(0); off < bytes; off += 8 {
					perWord.AccessLine(addr+off, write)
				}
			}
			for b, w := batched, perWord; b != nil; b, w = b.next, w.next {
				if !reflect.DeepEqual(b.resident(), w.resident()) {
					t.Fatalf("%s: batched and per-word replacement state diverged", name)
				}
			}
		})
	}
}

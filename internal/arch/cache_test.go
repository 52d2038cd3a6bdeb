package arch

import (
	"testing"
	"testing/quick"
)

func smallCacheConfig() CacheConfig {
	return CacheConfig{Name: "test", SizeBytes: 1024, LineBytes: 64, Associativity: 2, LatencyCycles: 3}
}

func TestCacheConfigSets(t *testing.T) {
	cfg := smallCacheConfig()
	if got, want := cfg.Sets(), 1024/(64*2); got != want {
		t.Fatalf("Sets() = %d, want %d", got, want)
	}
	if (CacheConfig{}).Sets() != 0 {
		t.Fatal("zero config should have 0 sets")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	if err := smallCacheConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero-size", SizeBytes: 0, LineBytes: 64, Associativity: 2},
		{Name: "odd-line", SizeBytes: 1024, LineBytes: 63, Associativity: 2},
		{Name: "zero-assoc", SizeBytes: 1024, LineBytes: 64, Associativity: 0},
		{Name: "tiny", SizeBytes: 64, LineBytes: 64, Associativity: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be rejected", cfg.Name)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	if c.Depth() != 1 {
		t.Fatalf("a lone cache has depth %d, want 1", c.Depth())
	}
	if lvl := c.AccessLine(0x1000, false); lvl != c.Depth() {
		t.Fatalf("first access should go to memory, got level %d", lvl)
	}
	if lvl := c.AccessLine(0x1000, false); lvl != 0 {
		t.Fatalf("second access to same line should hit, got level %d", lvl)
	}
	// Same line, different offset within the 64-byte line.
	if lvl := c.AccessLine(0x1030, false); lvl != 0 {
		t.Fatalf("access within same line should hit, got level %d", lvl)
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: three distinct lines mapping to the same set must evict
	// the least recently used one.
	cfg := smallCacheConfig()
	c := NewCache(cfg, nil)
	sets := uint64(cfg.Sets())
	lineSize := uint64(cfg.LineBytes)
	// Addresses that map to set 0: multiples of sets*lineSize.
	a := uint64(0)
	b := sets * lineSize
	d := 2 * sets * lineSize

	c.AccessLine(a, false) // miss
	c.AccessLine(b, false) // miss
	c.AccessLine(a, false) // hit, refreshes a
	c.AccessLine(d, false) // miss, evicts b (LRU)
	if c.AccessLine(a, false) != 0 {
		t.Fatal("a should still be cached")
	}
	if c.AccessLine(b, false) != c.Depth() {
		t.Fatal("b should have been evicted")
	}
}

func TestCacheHierarchyForwarding(t *testing.T) {
	l2 := NewCache(CacheConfig{Name: "L2", SizeBytes: 4096, LineBytes: 64, Associativity: 4, LatencyCycles: 10}, nil)
	l1 := NewCache(smallCacheConfig(), l2)

	if l1.Depth() != 2 {
		t.Fatalf("L1 over L2 has depth %d, want 2", l1.Depth())
	}
	if lvl := l1.AccessLine(0x40, false); lvl != 2 {
		t.Fatalf("cold access should miss all levels, got level %d", lvl)
	}
	if l1.Misses() != 1 || l2.Misses() != 1 {
		t.Fatalf("a cold probe should miss once per level, got L1 %d, L2 %d", l1.Misses(), l2.Misses())
	}
	// L1 evict-then-rereference: fill L1 set with conflicting lines, then the
	// original should hit in L2 (level 1).
	sets := uint64(l1.Config().Sets())
	line := uint64(64)
	l1.AccessLine(0x40+sets*line, false)
	l1.AccessLine(0x40+2*sets*line, false)
	if lvl := l1.AccessLine(0x40, false); lvl != 1 {
		t.Fatalf("expected L2 hit (level 1), got %d", lvl)
	}
}

func TestCacheHitRatioAndReset(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	if c.HitRatio() != 1 {
		t.Fatal("untouched cache should report hit ratio 1")
	}
	c.AccessLine(0, false)
	c.AccessLine(0, false)
	if got := c.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %g, want 0.5", got)
	}
	c.Reset()
	if c.Accesses() != 0 || c.HitRatio() != 1 {
		t.Fatal("Reset should clear statistics")
	}
	if c.AccessLine(0, false) != c.Depth() {
		t.Fatal("Reset should clear contents too")
	}
}

// Property: hits + misses always equals the number of accesses and the hit
// ratio stays within [0,1] for arbitrary address streams.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewCache(smallCacheConfig(), nil)
		for _, a := range addrs {
			c.AccessLine(uint64(a), a%3 == 0)
		}
		if c.Hits()+c.Misses() != uint64(len(addrs)) {
			return false
		}
		hr := c.HitRatio()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set that fits in the cache always hits after the first
// pass (temporal locality is rewarded).
func TestCacheSmallWorkingSetProperty(t *testing.T) {
	cfg := CacheConfig{Name: "p", SizeBytes: 8192, LineBytes: 64, Associativity: 8, LatencyCycles: 1}
	f := func(seed uint8) bool {
		c := NewCache(cfg, nil)
		// 16 lines, well within capacity (128 lines).
		base := uint64(seed) * 64
		for pass := 0; pass < 3; pass++ {
			for i := uint64(0); i < 16; i++ {
				c.AccessLine(base+i*64, false)
			}
		}
		// After the first pass the remaining 32 accesses must all hit.
		return c.Misses() == 16 && c.Hits() == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingAccessMissesEveryLine(t *testing.T) {
	c := NewCache(smallCacheConfig(), nil)
	// Stream through 1 MB sequentially: every new line misses, accesses
	// within a line hit.
	var misses int
	for addr := uint64(0); addr < 1<<20; addr += 8 {
		if c.AccessLine(addr, false) == c.Depth() {
			misses++
		}
	}
	wantMisses := (1 << 20) / 64
	if misses != wantMisses {
		t.Fatalf("streaming misses = %d, want %d", misses, wantMisses)
	}
}

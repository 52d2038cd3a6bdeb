package arch

import "testing"

// benchHierarchy builds the Westmere data-side chain once per benchmark.
func benchHierarchy() *Cache {
	p := Westmere()
	l3 := NewCache(p.L3, nil)
	l2 := NewCache(p.L2, l3)
	return NewCache(p.L1D, l2)
}

// BenchmarkCacheAccessLine drives the hierarchy with repeated sequential
// 4 KB runs through a 1 MB window (an L2-straining working set), one
// AccessLine probe per line of each run: the probe loop sim.Exec runs for
// a multi-line Load or Store.
const (
	benchRunBytes    = 4096
	benchWindowBytes = 1 << 20
)

func BenchmarkCacheAccessLine(b *testing.B) {
	c := benchHierarchy()
	lineBytes := uint64(c.Config().LineBytes)
	var addr uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for off := uint64(0); off < benchRunBytes; off += lineBytes {
			c.AccessLine(addr+off, false)
		}
		addr = (addr + benchRunBytes) % benchWindowBytes
	}
}

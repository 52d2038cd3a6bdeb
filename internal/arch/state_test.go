package arch

import (
	"bytes"
	"reflect"
	"testing"
)

// dirtyMachine drives deterministic traffic through every stateful
// component of the machine: all cores' data/instruction hierarchies and
// branch predictors, which also exercises the shared per-socket L3s.
func dirtyMachine(m *Machine) {
	for ci := 0; ci < m.NumCores(); ci++ {
		core := m.Core(ci)
		for i := uint64(0); i < 300; i++ {
			addr := i*97 + uint64(ci)*131071
			core.Caches.L1D.AccessLine(addr*64, i%3 == 0)
			core.Caches.L1I.AccessLine(addr*64+7, false)
			core.Branch.Record(addr, i%5 != 0)
		}
	}
}

func TestMachineStateRoundTrip(t *testing.T) {
	for _, p := range []Profile{Westmere(), Haswell()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := MustNewMachine(p)
			dirtyMachine(src)
			state := src.AppendState(nil)
			if !bytes.Equal(state, src.AppendState(nil)) {
				t.Fatal("AppendState is not deterministic")
			}

			dst := MustNewMachine(p)
			// Pre-dirty differently: the load must fully overwrite.
			for i := uint64(0); i < 50; i++ {
				dst.Core(0).Caches.L1D.AccessLine(i*4096, true)
			}
			rest, err := dst.LoadState(state)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d unconsumed bytes", len(rest))
			}
			if !bytes.Equal(state, dst.AppendState(nil)) {
				t.Fatal("re-export after load diverges")
			}
			// Identical future behaviour, not just identical statistics.
			dirtyMachine(src)
			dirtyMachine(dst)
			if !bytes.Equal(src.AppendState(nil), dst.AppendState(nil)) {
				t.Fatal("loaded machine diverged from original on identical traffic")
			}
		})
	}
}

func TestMachineLoadRejectsMismatchedGeometry(t *testing.T) {
	src := MustNewMachine(Westmere())
	dirtyMachine(src)
	state := src.AppendState(nil)

	other := MustNewMachine(Haswell())
	if _, err := other.LoadState(state); err == nil {
		t.Fatal("load of another profile's state must fail")
	}
	target := MustNewMachine(Westmere())
	for _, cut := range []int{0, 8, len(state) / 2, len(state) - 1} {
		if _, err := target.LoadState(state[:cut]); err == nil {
			t.Fatalf("load of %d/%d truncated bytes must fail", cut, len(state))
		}
	}
	// A failed load resets the target: it must now equal a fresh machine.
	fresh := MustNewMachine(Westmere())
	if !bytes.Equal(target.AppendState(nil), fresh.AppendState(nil)) {
		t.Fatal("machine left dirty after failed load")
	}
}

func TestCacheLoadRejectsCorruptLineIndexes(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 4096, LineBytes: 64, Associativity: 2, LatencyCycles: 1}, nil)
	c.AccessLine(0, true)
	c.AccessLine(64, false)
	state := c.AppendState(nil)

	// Flip the second sparse entry's index to repeat the first: indexes
	// must be strictly increasing.
	bad := append([]byte(nil), state...)
	idxOff := 5*8 + 3*8 // header words, then first entry
	copy(bad[idxOff:idxOff+8], bad[5*8:5*8+8])
	fresh := NewCache(c.Config(), nil)
	if _, err := fresh.LoadState(bad); err == nil {
		t.Fatal("out-of-order line index must be rejected")
	}

	rt := NewCache(c.Config(), nil)
	if _, err := rt.LoadState(state); err != nil {
		t.Fatalf("load: %v", err)
	}
	if rt.Hits() != c.Hits() || rt.Misses() != c.Misses() {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", rt.Hits(), rt.Misses(), c.Hits(), c.Misses())
	}
}

func TestBranchPredictorStateRoundTrip(t *testing.T) {
	src := NewBranchPredictor(BranchPredictorConfig{HistoryBits: 8, MissPenaltyCycles: 12})
	for i := uint64(0); i < 500; i++ {
		src.Record(i*31, i%7 < 3)
	}
	state := src.AppendState(nil)
	dst := NewBranchPredictor(src.Config())
	rest, err := dst.LoadState(state)
	if err != nil || len(rest) != 0 {
		t.Fatalf("load: err=%v rest=%d", err, len(rest))
	}
	if dst.Lookups() != src.Lookups() || dst.Misses() != src.Misses() {
		t.Fatal("statistics diverged")
	}
	if !reflect.DeepEqual(src.counters, dst.counters) || src.history != dst.history {
		t.Fatal("predictor state diverged")
	}
	small := NewBranchPredictor(BranchPredictorConfig{HistoryBits: 4})
	if _, err := small.LoadState(state); err == nil {
		t.Fatal("load into a differently sized table must fail")
	}
}

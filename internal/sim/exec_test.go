package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dataproxy/internal/arch"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(SingleNode(arch.Westmere(), 0))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runSingle(t *testing.T, fn func(ex *Exec)) (*Cluster, StageResult) {
	t.Helper()
	c := testCluster(t)
	res := c.RunStage("stage", []Task{{Node: -1, Fn: fn}}, 0, 1)
	return c, res
}

func TestExecCountsInstructionClasses(t *testing.T) {
	c, _ := runSingle(t, func(ex *Exec) {
		ex.Int(100)
		ex.Float(50)
		r := ex.Node().Alloc(1024)
		ex.Load(r, 0, 80)   // 10 loads
		ex.Store(r, 0, 160) // 20 stores
		ex.Branch(1, true)
		ex.Branch(1, false)
	})
	cnt := c.Nodes()[0].Counters()
	if cnt.IntInstrs != 100 || cnt.FloatInstrs != 50 {
		t.Fatalf("int/float = %d/%d", cnt.IntInstrs, cnt.FloatInstrs)
	}
	if cnt.LoadInstrs != 10 || cnt.StoreInstrs != 20 {
		t.Fatalf("load/store = %d/%d", cnt.LoadInstrs, cnt.StoreInstrs)
	}
	if cnt.BranchInstrs != 2 {
		t.Fatalf("branch = %d", cnt.BranchInstrs)
	}
	if cnt.Instructions() != 182 {
		t.Fatalf("total instructions = %d", cnt.Instructions())
	}
	if cnt.Cycles == 0 {
		t.Fatal("cycles should be derived")
	}
	if err := cnt.Validate(); err != nil {
		t.Fatalf("counters inconsistent: %v", err)
	}
}

func TestExecSmallAccessCountsAsOneOp(t *testing.T) {
	c, _ := runSingle(t, func(ex *Exec) {
		r := ex.Node().Alloc(64)
		ex.Load(r, 0, 1) // less than a word still counts one load
		ex.Touch(r, 8, true)
	})
	cnt := c.Nodes()[0].Counters()
	if cnt.LoadInstrs != 1 || cnt.StoreInstrs != 1 {
		t.Fatalf("load/store = %d/%d", cnt.LoadInstrs, cnt.StoreInstrs)
	}
}

func TestExecWrappingAccessRespectsModelCap(t *testing.T) {
	// A bulk access over a region smaller than a cache line wraps on every
	// byte; the modelling cost must stay bounded by MaxModelOpsPerCall
	// probes per call, with the remainder extrapolated.
	c, _ := runSingle(t, func(ex *Exec) {
		r := ex.Node().Alloc(1)
		ex.Load(r, 0, 32*1024)
	})
	node := c.Nodes()[0]
	probes := node.Machine().Core(0).Caches.L1D.Accesses()
	if probes > uint64(defaultMaxModelOpsPerCall) {
		t.Fatalf("wrapping load issued %d L1D probes, cap is %d", probes, defaultMaxModelOpsPerCall)
	}
	if err := node.Counters().Validate(); err != nil {
		t.Fatalf("counters inconsistent: %v", err)
	}
}

func TestExecCacheLocalityVisibleInCounters(t *testing.T) {
	// Repeatedly scanning a small buffer must have far fewer L1D misses than
	// streaming over a large one with the same number of accesses.
	small, _ := runSingle(t, func(ex *Exec) {
		r := ex.Node().Alloc(16 * 1024) // fits in 32 KB L1D
		for pass := 0; pass < 64; pass++ {
			ex.Load(r, 0, 16*1024)
		}
	})
	large, _ := runSingle(t, func(ex *Exec) {
		r := ex.Node().Alloc(64 * 1024 * 1024)
		ex.Load(r, 0, 64*1024*1024/64) // same op count in total? not needed; compare ratios
	})
	smallCnt := small.Nodes()[0].Counters()
	largeCnt := large.Nodes()[0].Counters()
	smallMissRate := float64(smallCnt.L1DMisses) / float64(smallCnt.L1DAccesses)
	largeMissRate := float64(largeCnt.L1DMisses) / float64(largeCnt.L1DAccesses)
	if smallMissRate >= largeMissRate {
		t.Fatalf("small working set miss rate %g should be below streaming miss rate %g",
			smallMissRate, largeMissRate)
	}
}

func TestExecFloatCostSlowsExecution(t *testing.T) {
	intOnly, _ := runSingle(t, func(ex *Exec) { ex.Int(1_000_000) })
	fpOnly, _ := runSingle(t, func(ex *Exec) { ex.Float(1_000_000) })
	ci := intOnly.Nodes()[0].Counters().Cycles
	cf := fpOnly.Nodes()[0].Counters().Cycles
	if cf <= ci {
		t.Fatalf("floating point (%d cycles) should be slower than integer (%d cycles) on Westmere", cf, ci)
	}
}

func TestExecDiskAndNetworkAccounting(t *testing.T) {
	c, res := runSingle(t, func(ex *Exec) {
		ex.ReadDisk(10 * 1024 * 1024)
		ex.WriteDisk(5 * 1024 * 1024)
		ex.NetSend(1024 * 1024)
		ex.NetRecv(2 * 1024 * 1024)
	})
	cnt := c.Nodes()[0].Counters()
	if cnt.DiskReadBytes != 10*1024*1024 || cnt.DiskWriteBytes != 5*1024*1024 {
		t.Fatalf("disk bytes = %d/%d", cnt.DiskReadBytes, cnt.DiskWriteBytes)
	}
	if cnt.NetSentBytes != 1024*1024 || cnt.NetRecvBytes != 2*1024*1024 {
		t.Fatalf("net bytes = %d/%d", cnt.NetSentBytes, cnt.NetRecvBytes)
	}
	if res.Seconds <= 0 {
		t.Fatal("I/O must advance virtual time")
	}
	node := c.Nodes()[0]
	if node.DiskSeconds() <= 0 || node.NetSeconds() <= 0 {
		t.Fatal("node disk/net seconds should accumulate")
	}
}

func TestExecScaleExtrapolatesCountersAndTime(t *testing.T) {
	base := testCluster(t)
	base.RunStage("s", []Task{{Node: -1, Fn: func(ex *Exec) {
		ex.Int(1000)
		ex.ReadDisk(1 << 20)
	}}}, 0, 1)
	scaled := testCluster(t)
	scaled.RunStage("s", []Task{{Node: -1, Fn: func(ex *Exec) {
		ex.Int(1000)
		ex.ReadDisk(1 << 20)
	}}}, 0, 10)
	b := base.Nodes()[0].Counters()
	s := scaled.Nodes()[0].Counters()
	if s.IntInstrs != 10*b.IntInstrs {
		t.Fatalf("scaled IntInstrs = %d, want %d", s.IntInstrs, 10*b.IntInstrs)
	}
	if s.DiskReadBytes != 10*b.DiskReadBytes {
		t.Fatalf("scaled DiskReadBytes = %d", s.DiskReadBytes)
	}
	ratio := scaled.Elapsed() / base.Elapsed()
	if ratio < 8 || ratio > 12 {
		t.Fatalf("scaled runtime should be ~10x, got %.2fx", ratio)
	}
}

func TestExecBranchPredictionDifferentiatesPatterns(t *testing.T) {
	predictable, _ := runSingle(t, func(ex *Exec) {
		for i := 0; i < 20000; i++ {
			ex.Branch(7, true)
		}
	})
	random, _ := runSingle(t, func(ex *Exec) {
		state := uint64(99)
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1
			ex.Branch(7, state>>63 == 1)
		}
	})
	p := predictable.Nodes()[0].Counters()
	r := random.Nodes()[0].Counters()
	pRate := float64(p.BranchMisses) / float64(p.BranchInstrs)
	rRate := float64(r.BranchMisses) / float64(r.BranchInstrs)
	if pRate >= rRate {
		t.Fatalf("predictable branches (%g) should mispredict less than random (%g)", pRate, rRate)
	}
}

func TestExecCodeFootprintAffectsICache(t *testing.T) {
	lean, _ := runSingle(t, func(ex *Exec) {
		ex.SetCodeFootprint(16*1024, 40)
		ex.Int(2_000_000)
	})
	heavy, _ := runSingle(t, func(ex *Exec) {
		ex.SetCodeFootprint(8*1024*1024, 200)
		ex.Int(2_000_000)
	})
	leanMiss := float64(lean.Nodes()[0].Counters().L1IMisses) / float64(lean.Nodes()[0].Counters().L1IAccesses)
	heavyMiss := float64(heavy.Nodes()[0].Counters().L1IMisses) / float64(heavy.Nodes()[0].Counters().L1IAccesses)
	if leanMiss >= heavyMiss {
		t.Fatalf("lean code footprint (%g) should miss less than a heavy stack (%g)", leanMiss, heavyMiss)
	}
}

func TestRegionAddrWraps(t *testing.T) {
	c := testCluster(t)
	n := c.Nodes()[0]
	r := n.Alloc(100)
	if r.Size() != 100 {
		t.Fatalf("Size = %d", r.Size())
	}
	if r.Addr(0) != r.Addr(100) {
		t.Fatal("offsets should wrap at the region size")
	}
	r2 := n.Alloc(10)
	if r2.Addr(0) == r.Addr(0) {
		t.Fatal("distinct regions must not alias")
	}
	var empty Region
	if empty.Addr(5) != 0 {
		t.Fatal("zero region should address its base")
	}
}

// Property: counters produced by arbitrary small instruction mixes always
// validate and cycles grow monotonically with added work.
func TestExecCountersConsistencyProperty(t *testing.T) {
	f := func(ints, floats, loads uint8) bool {
		c := MustNewCluster(SingleNode(arch.Westmere(), 0))
		c.RunStage("p", []Task{{Node: -1, Fn: func(ex *Exec) {
			r := ex.Node().Alloc(4096)
			ex.Int(uint64(ints))
			ex.Float(uint64(floats))
			for i := 0; i < int(loads); i++ {
				ex.Touch(r, uint64(i*8), false)
			}
		}}}, 0, 1)
		cnt := c.Nodes()[0].Counters()
		if err := cnt.Validate(); err != nil {
			return false
		}
		if int(ints)+int(floats)+int(loads) > 0 && cnt.Cycles == 0 {
			return false
		}
		return !math.IsNaN(c.Elapsed()) && c.Elapsed() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

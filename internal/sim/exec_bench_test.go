package sim

import (
	"testing"

	"dataproxy/internal/arch"
)

func benchExec(b *testing.B) *Exec {
	b.Helper()
	c, err := NewCluster(SingleNode(arch.Westmere(), 0))
	if err != nil {
		b.Fatal(err)
	}
	n := c.Nodes()[0]
	return newExec(n, 0, 1)
}

// accessPerWord replicates the pre-batching Exec.access hot path — one
// hierarchy probe per machine word, capped at MaxModelOpsPerCall words with
// a strided walk — so BenchmarkExecLoad can compare the retired per-word
// driving style against the batched AccessRun path on the same trace.
func (e *Exec) accessPerWord(r Region, off, size uint64, write bool) {
	ops := wordOps(size)
	if write {
		e.counters.StoreInstrs += ops
	} else {
		e.counters.LoadInstrs += ops
	}
	e.counters.L1DAccesses += ops
	e.countInstr(ops)

	model := ops
	if model > uint64(e.cfg.MaxModelOpsPerCall) {
		model = uint64(e.cfg.MaxModelOpsPerCall)
	}
	stride := uint64(wordBytes)
	if model < ops {
		stride = (size / model) / wordBytes * wordBytes
		if stride < wordBytes {
			stride = wordBytes
		}
	}
	addr := off
	for i := uint64(0); i < model; i++ {
		res := e.core.Caches.L1D.Access(r.Addr(addr), write)
		var rr arch.RunResult
		rr.LineAccesses = 1
		rr.LatencyCycles = uint64(res.Latency)
		if res.HitLevel > 0 {
			rr.LevelHits[res.HitLevel-1]++
		} else {
			rr.MemAccesses = 1
			rr.MemoryBytes = uint64(res.MemoryBytes)
		}
		e.data.recordRun(rr, 1, write)
		addr += stride
	}
}

// Each Exec.Load trace replays sequential 4 KB reads walking a region.  The
// hot trace re-streams a 128 KB (L2-resident) working set — the shape of the
// motifs' inner loops over a matrix tile or centroid block, where the
// batched path pays one cheap probe per line instead of eight word probes.
// The stream trace walks a 16 MB (L3-straining) region where every line
// probe walks deep into the hierarchy on either path.
const execBenchLoadBytes = 4096

func benchmarkExecLoadTrace(b *testing.B, regionBytes uint64, load func(e *Exec, r Region, off, size uint64)) {
	e := benchExec(b)
	r := e.node.Alloc(regionBytes)
	var off uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load(e, r, off, execBenchLoadBytes)
		off = (off + execBenchLoadBytes) % regionBytes
	}
}

// The column trace is the per-output work of PageRank's matrix multiply
// (motif.runMatrixMultiplication at n = 512): 64 word touches down one
// column of a 2 MiB matrix at a 32 KiB stride, the 2n floating-point
// instructions of the dot product and the 8-byte store of the output
// element.  Every data probe and every modelled instruction fetch of it is
// a single-line probe.
func benchmarkExecColumn(b *testing.B) {
	const n = 512
	e := benchExec(b)
	ra := e.node.Alloc(n * n * wordBytes)
	rc := e.node.Alloc(n * n * wordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := uint64(i % (n * n))
		col := out % n
		for k := uint64(0); k < n; k += 8 {
			e.Touch(ra, (k*n+col)*wordBytes, false)
		}
		e.Float(2 * n)
		e.Store(rc, out*wordBytes, wordBytes)
	}
}

func BenchmarkExecLoad(b *testing.B) {
	perword := func(e *Exec, r Region, off, size uint64) { e.accessPerWord(r, off, size, false) }
	batched := func(e *Exec, r Region, off, size uint64) { e.Load(r, off, size) }
	for _, trace := range []struct {
		name        string
		regionBytes uint64
	}{
		{"hot", 128 << 10},
		{"stream", 16 << 20},
	} {
		b.Run(trace.name+"/perword", func(b *testing.B) {
			benchmarkExecLoadTrace(b, trace.regionBytes, perword)
		})
		b.Run(trace.name+"/batched", func(b *testing.B) {
			benchmarkExecLoadTrace(b, trace.regionBytes, batched)
		})
	}
	b.Run("column", benchmarkExecColumn)
}

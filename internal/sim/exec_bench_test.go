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
	return newExec(n, 0)
}

// Each Exec.Load trace replays sequential 4 KB reads walking a region.  The
// hot trace re-streams a 128 KB (L2-resident) working set — the shape of the
// motifs' inner loops over a matrix tile or centroid block, where a probe
// per line resolves in the L1 or L2.  The stream trace walks a 16 MB
// (L3-straining) region where every line probe walks deep into the
// hierarchy.
const execBenchLoadBytes = 4096

func benchmarkExecLoadTrace(b *testing.B, regionBytes uint64) {
	e := benchExec(b)
	r := e.node.Alloc(regionBytes)
	var off uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Load(r, off, execBenchLoadBytes)
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
	for _, trace := range []struct {
		name        string
		regionBytes uint64
	}{
		{"hot", 128 << 10},
		{"stream", 16 << 20},
	} {
		b.Run(trace.name+"/batched", func(b *testing.B) {
			benchmarkExecLoadTrace(b, trace.regionBytes)
		})
	}
	b.Run("column", benchmarkExecColumn)
}

package aimotif

import (
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// benchmarkConv measures the Conv2D kernel (an AlexNet-scale layer) with
// the given host worker count; the Sequential/Parallel pair quantifies the
// kernel-level speedup of the parallel execution engine on multi-core
// hosts.
func benchmarkConv(b *testing.B, workers int) {
	b.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	in := tensor.New(8, 64, 32, 32)
	filters := tensor.New(96, 64, 3, 3)
	for i, d := 0, in.Data(); i < len(d); i++ {
		d[i] = float32(i%7) * 0.1
	}
	for i, d := 0, filters.Data(); i < len(d); i++ {
		d[i] = float32(i%5) * 0.02
	}
	cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.RunStage("conv", []sim.Task{{Node: -1, Fn: func(ex *sim.Exec) {
			if _, err := Conv2D(ex, nil, in, filters, ConvConfig{Stride: 1, Padding: 1}); err != nil {
				b.Fatal(err)
			}
		}}}, 0)
	}
}

func BenchmarkConv2DSequential(b *testing.B) { benchmarkConv(b, 1) }
func BenchmarkConv2DParallel(b *testing.B)   { benchmarkConv(b, 0) }

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
		}}}, 0, 1)
	}
}

func BenchmarkConv2DSequential(b *testing.B) { benchmarkConv(b, 1) }
func BenchmarkConv2DParallel(b *testing.B)   { benchmarkConv(b, 0) }

// BenchmarkFullyConnected measures the dense layer at the proxies' two
// shapes (batch × inputs × outputs): AlexNet's and Inception-V3's, whose
// weight matrix is 22 MB.  It runs on one worker,
// the configuration the bench gate compares across hosts, and all b.N
// calls share one simulated task and session, so after the warm-up call
// each output comes from the arena.
func BenchmarkFullyConnected(b *testing.B) {
	for _, shape := range []struct {
		name             string
		n, inDim, outDim int
	}{
		{"8x8192x128", 8, 8192, 128},
		{"4x43808x128", 4, 43808, 128},
	} {
		b.Run(shape.name, func(b *testing.B) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			in := inputTensor(shape.n, shape.inDim)
			weights := inputTensor(shape.inDim, shape.outDim)
			cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
			cluster.RunOnNode("fc", 0, 1, func(ex *sim.Exec) {
				sess := NewSession()
				call := func() {
					out, err := FullyConnected(ex, sess, in, weights, nil)
					if err != nil {
						b.Fatal(err)
					}
					sess.Release(out)
				}
				call()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call()
				}
				b.StopTimer()
			})
		})
	}
}

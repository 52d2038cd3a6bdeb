package aimotif

import (
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// The parallel kernels must be bit-identical to their sequential fallback:
// every output element is computed by the same sequence of floating-point
// operations regardless of the worker count, and the sim accounting runs in
// a deterministic sequential pass either way.  These property tests execute
// each kernel once with a single worker and once with many workers and
// require identical tensors AND identical simulation counters.

func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	fn()
}

// runKernel executes fn on a fresh single-node cluster and returns the
// resulting tensor and the node's counters.
func runKernel(t *testing.T, fn func(ex *sim.Exec) *tensor.Tensor) (*tensor.Tensor, uint64, uint64) {
	t.Helper()
	cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	var out *tensor.Tensor
	cluster.RunStage("kernel", []sim.Task{{Node: -1, Fn: func(ex *sim.Exec) {
		out = fn(ex)
	}}}, 0, 1)
	cnt := cluster.Nodes()[0].Counters()
	return out, cnt.Instructions(), cnt.Cycles
}

func tensorsEqual(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

func inputTensor(dims ...int) *tensor.Tensor {
	in := tensor.New(dims...)
	d := in.Data()
	for i := range d {
		d[i] = float32((i%23)-11) * 0.13
	}
	return in
}

// compareParallelSequential runs the kernel at 1 worker and at 8 workers and
// asserts bit-identical tensors and identical sim counters.
func compareParallelSequential(t *testing.T, name string, fn func(ex *sim.Exec) *tensor.Tensor) {
	t.Helper()
	var seqOut, parOut *tensor.Tensor
	var seqInstr, parInstr, seqCycles, parCycles uint64
	withWorkers(t, 1, func() {
		seqOut, seqInstr, seqCycles = runKernel(t, fn)
	})
	withWorkers(t, 8, func() {
		parOut, parInstr, parCycles = runKernel(t, fn)
	})
	if !tensorsEqual(seqOut, parOut) {
		t.Fatalf("%s: parallel output differs from sequential output", name)
	}
	if seqInstr != parInstr || seqCycles != parCycles {
		t.Fatalf("%s: accounting diverged: %d/%d instructions, %d/%d cycles",
			name, seqInstr, parInstr, seqCycles, parCycles)
	}
}

func TestConv2DParallelMatchesSequential(t *testing.T) {
	in := inputTensor(3, 5, 13, 13)
	filters := inputTensor(7, 5, 3, 3)
	for _, cfg := range []ConvConfig{{Stride: 1, Padding: 1}, {Stride: 2, Padding: 0}} {
		cfg := cfg
		compareParallelSequential(t, "Conv2D", func(ex *sim.Exec) *tensor.Tensor {
			out, err := Conv2D(ex, nil, in, filters, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	}
}

func TestPool2DParallelMatchesSequential(t *testing.T) {
	in := inputTensor(3, 6, 12, 12)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		kind := kind
		compareParallelSequential(t, "Pool2D", func(ex *sim.Exec) *tensor.Tensor {
			out, err := Pool2D(ex, nil, in, kind, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	}
}

func TestFullyConnectedParallelMatchesSequential(t *testing.T) {
	in := inputTensor(9, 31)
	weights := inputTensor(31, 17)
	bias := inputTensor(17)
	compareParallelSequential(t, "FullyConnected", func(ex *sim.Exec) *tensor.Tensor {
		out, err := FullyConnected(ex, nil, in, weights, bias)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func TestBatchNormParallelMatchesSequential(t *testing.T) {
	in := inputTensor(4, 9, 7, 7)
	compareParallelSequential(t, "BatchNorm", func(ex *sim.Exec) *tensor.Tensor {
		out, err := BatchNorm(ex, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func TestCosineNormParallelMatchesSequential(t *testing.T) {
	in := inputTensor(13, 29)
	compareParallelSequential(t, "CosineNorm", func(ex *sim.Exec) *tensor.Tensor {
		out, err := CosineNorm(ex, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

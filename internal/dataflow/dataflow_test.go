package dataflow

import (
	"testing"

	"dataproxy/internal/aimotif"
	"dataproxy/internal/arch"
	"dataproxy/internal/datagen"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// tinyNet builds a small but complete CNN: conv -> relu -> pool -> dense ->
// softmax.
func tinyNet() *Network {
	return &Network{
		Name: "tiny",
		Layers: []Layer{
			NewConv("conv1", 3, 8, 3, 1, 1),
			&Activation{Label: "relu1", Act: aimotif.ReLU},
			&Pool{Label: "pool1", Kind: aimotif.MaxPool, Window: 2, Stride: 2},
			&BatchNorm{Label: "bn1"},
			NewDense("fc", 8*8*8, 10),
			&Softmax{Label: "prob"},
		},
	}
}

func tinyConfig() SessionConfig {
	return SessionConfig{
		Name:        "tiny",
		BatchSize:   32,
		TotalSteps:  400,
		SampleBatch: 2,
		Input:       datagen.ImageConfig{Seed: 3, Channels: 3, Height: 16, Width: 16},
	}
}

func TestNetworkForwardShapes(t *testing.T) {
	net := tinyNet()
	if net.ParamCount() == 0 {
		t.Fatal("network should have parameters")
	}
	c := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	c.RunOnNode("fwd", 0, 1, func(ex *sim.Exec) {
		imgs, _ := datagen.GenerateImages(datagen.ImageConfig{Seed: 1, Count: 2, Channels: 3, Height: 16, Width: 16})
		batch := aimotif.ImagesToTensor(imgs, 3, 16, 16)
		out, err := net.Forward(ex, aimotif.NewSession(), batch)
		if err != nil {
			t.Error(err)
			return
		}
		if out.Dim(0) != 2 || out.Dim(1) != 10 {
			t.Errorf("output shape %v, want [2 10]", out.Shape())
		}
		// Softmax output rows sum to ~1.
		var sum float64
		for i := 0; i < 10; i++ {
			sum += float64(out.At(0, i))
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("softmax row sums to %g", sum)
		}
	})
}

func TestTrainEndToEnd(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	res, err := Train(cluster, tinyNet(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 {
		t.Fatalf("loss should be positive, got %g", res.Loss)
	}
	if res.StepsExecuted != 4 {
		t.Fatalf("expected one sampled step per worker (4), got %d", res.StepsExecuted)
	}
	if res.Scale < 1 {
		t.Fatalf("scale %g should extrapolate", res.Scale)
	}
	if cluster.Elapsed() <= 8 {
		t.Fatal("training should advance the virtual clock beyond setup")
	}
	// Workers do FP-heavy compute; the master (parameter server) moves a lot
	// of network traffic.
	for _, w := range cluster.Workers() {
		cnt := w.Counters()
		if cnt.FloatInstrs == 0 {
			t.Fatal("worker should execute floating point work")
		}
		if err := cnt.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if cluster.Master().Counters().NetRecvBytes == 0 {
		t.Fatal("parameter server should receive gradients")
	}
	// AI workloads have near-zero disk traffic compared to their compute.
	rep := cluster.Report("tiny")
	if rep.Metrics.FloatRatio < 0.1 {
		t.Fatalf("AI workload float ratio %g should be substantial", rep.Metrics.FloatRatio)
	}
}

func TestTrainValidation(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	if _, err := Train(cluster, nil, tinyConfig()); err == nil {
		t.Fatal("nil network should be rejected")
	}
	cfg := tinyConfig()
	cfg.BatchSize = 0
	if _, err := Train(cluster, tinyNet(), cfg); err == nil {
		t.Fatal("zero batch size should be rejected")
	}
	cfg = tinyConfig()
	cfg.Input.Channels = 0
	if _, err := Train(cluster, tinyNet(), cfg); err == nil {
		t.Fatal("invalid input config should be rejected")
	}
}

func TestTrainMoreStepsTakeLonger(t *testing.T) {
	short := sim.MustNewCluster(sim.FiveNodeWestmere())
	cfgShort := tinyConfig()
	cfgShort.TotalSteps = 100
	if _, err := Train(short, tinyNet(), cfgShort); err != nil {
		t.Fatal(err)
	}
	long := sim.MustNewCluster(sim.FiveNodeWestmere())
	cfgLong := tinyConfig()
	cfgLong.TotalSteps = 1000
	if _, err := Train(long, tinyNet(), cfgLong); err != nil {
		t.Fatal(err)
	}
	if long.Elapsed() <= short.Elapsed() {
		t.Fatalf("10x steps should take longer (%g vs %g)", long.Elapsed(), short.Elapsed())
	}
}

func TestInceptionModuleConcatenatesChannels(t *testing.T) {
	mod := &Inception{
		Label: "mixed",
		Branches: [][]Layer{
			{NewConv("b1", 3, 4, 1, 1, 0)},
			{NewConv("b2a", 3, 2, 1, 1, 0), NewConv("b2b", 2, 6, 3, 1, 1)},
			{&Pool{Label: "b3p", Kind: aimotif.AvgPool, Window: 3, Stride: 1}, NewConv("b3", 3, 2, 1, 1, 0)},
		},
	}
	c := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	c.RunOnNode("inception", 0, 1, func(ex *sim.Exec) {
		imgs, _ := datagen.GenerateImages(datagen.ImageConfig{Seed: 2, Count: 1, Channels: 3, Height: 12, Width: 12})
		in := aimotif.ImagesToTensor(imgs, 3, 12, 12)
		// The avg-pool branch with window 3 stride 1 shrinks H/W, so restrict
		// this test to the branches that preserve spatial size.
		mod.Branches = mod.Branches[:2]
		out, err := mod.Forward(ex, aimotif.NewSession(), in)
		if err != nil {
			t.Error(err)
			return
		}
		if out.Dim(1) != 10 {
			t.Errorf("concatenated channels = %d, want 10", out.Dim(1))
		}
	})
	if mod.ParamCount() == 0 {
		t.Fatal("inception module should have parameters")
	}
}

func TestConcatChannelsValidation(t *testing.T) {
	a := tensor.New(1, 2, 4, 4)
	b := tensor.New(1, 3, 4, 4)
	out, err := concatChannels(nil, []*tensor.Tensor{a, b})
	if err != nil || out.Dim(1) != 5 {
		t.Fatalf("concat failed: %v", err)
	}
	if _, err := concatChannels(nil, nil); err == nil {
		t.Fatal("empty concat should fail")
	}
	c := tensor.New(1, 2, 8, 8)
	if _, err := concatChannels(nil, []*tensor.Tensor{a, c}); err == nil {
		t.Fatal("mismatched spatial dims should fail")
	}
}

func TestDenseLayerValidation(t *testing.T) {
	c := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	c.RunOnNode("dense", 0, 1, func(ex *sim.Exec) {
		d := NewDense("fc", 16, 4)
		in := tensor.New(2, 8)
		if _, err := d.Forward(ex, nil, in); err == nil {
			t.Error("dimension mismatch should be rejected")
		}
		ok := tensor.New(2, 2, 2, 4)
		if _, err := d.Forward(ex, nil, ok); err != nil {
			t.Errorf("rank-4 input should be flattened: %v", err)
		}
	})
}

func TestPoolLayerClampsWindow(t *testing.T) {
	c := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
	c.RunOnNode("pool", 0, 1, func(ex *sim.Exec) {
		p := &Pool{Label: "p", Kind: aimotif.MaxPool, Window: 8, Stride: 8}
		in := tensor.New(1, 2, 4, 4)
		out, err := p.Forward(ex, nil, in)
		if err != nil {
			t.Errorf("window should be clamped to the input size: %v", err)
			return
		}
		if out.Dim(2) != 1 || out.Dim(3) != 1 {
			t.Errorf("clamped pooling output %v", out.Shape())
		}
	})
}

func TestCrossEntropyAndLog(t *testing.T) {
	out, _ := tensor.FromData([]float32{0.9, 0.1, 0.5, 0.5}, 2, 2)
	loss := crossEntropy(out, []int{0, 1})
	if loss <= 0 {
		t.Fatalf("loss should be positive, got %g", loss)
	}
	// ln approximation sanity.
	if d := logApprox(1.0); d > 1e-6 || d < -1e-6 {
		t.Fatalf("log(1) = %g", d)
	}
	if d := logApprox(2.718281828) - 1; d > 0.01 || d < -0.01 {
		t.Fatalf("log(e) = %g, want ~1", 1+d)
	}
	if crossEntropy(tensor.New(0, 2), nil) != 0 {
		t.Fatal("empty output should give zero loss")
	}
}

func TestLayerNames(t *testing.T) {
	layers := []Layer{
		NewConv("c", 1, 1, 1, 1, 0),
		&Pool{Label: "p"},
		NewDense("d", 1, 1),
		&Activation{Label: "a"},
		&BatchNorm{Label: "b"},
		&Dropout{Label: "dr"},
		&Softmax{Label: "s"},
		&Inception{Label: "i"},
	}
	for _, l := range layers {
		if l.Name() == "" {
			t.Errorf("%T has empty name", l)
		}
	}
}

// TestArenaSessionMatchesFreshAllocation proves the tensor arena is
// behaviour-neutral: a session that recycles its intermediate activations
// across steps produces bit-identical outputs AND bit-identical simulation
// counters to a session that allocates every tensor freshly, at any worker
// count.
func TestArenaSessionMatchesFreshAllocation(t *testing.T) {
	imgs, err := datagen.GenerateImages(datagen.ImageConfig{Seed: 5, Count: 2, Channels: 3, Height: 16, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	net := tinyNet()
	const steps = 3

	run := func(workers int, pooled bool) ([]float32, uint64, uint64) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
		var final []float32
		cluster.RunOnNode("fwd", 0, 1, func(ex *sim.Exec) {
			sess := aimotif.NewUnpooledSession()
			if pooled {
				sess = aimotif.NewSession()
			}
			batch := aimotif.ImagesToTensor(imgs, 3, 16, 16)
			for step := 0; step < steps; step++ {
				out, err := net.Forward(ex, sess, batch)
				if err != nil {
					t.Error(err)
					return
				}
				final = append(final[:0], out.Data()...)
				sess.Release(out)
			}
		})
		cnt := cluster.Nodes()[0].Counters()
		return final, cnt.Instructions(), cnt.Cycles
	}

	wantOut, wantInstr, wantCycles := run(1, false)
	for _, workers := range []int{1, 8} {
		for _, pooled := range []bool{false, true} {
			out, instr, cycles := run(workers, pooled)
			if instr != wantInstr || cycles != wantCycles {
				t.Fatalf("workers=%d pooled=%v: counters diverged: %d/%d instructions, %d/%d cycles",
					workers, pooled, instr, wantInstr, cycles, wantCycles)
			}
			if len(out) != len(wantOut) {
				t.Fatalf("workers=%d pooled=%v: output size diverged", workers, pooled)
			}
			for i := range out {
				if out[i] != wantOut[i] {
					t.Fatalf("workers=%d pooled=%v: output[%d] = %g, want %g", workers, pooled, i, out[i], wantOut[i])
				}
			}
		}
	}
}

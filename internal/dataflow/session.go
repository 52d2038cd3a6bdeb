package dataflow

import (
	"fmt"

	"dataproxy/internal/aimotif"
	"dataproxy/internal/datagen"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// Network is an ordered stack of layers with a name.
type Network struct {
	Name   string
	Layers []Layer
}

// ParamCount returns the total number of trainable parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += l.ParamCount()
	}
	return total
}

// Forward runs the full network on a batch, returning the output tensor.
// Intermediate activations — every layer output except the caller's input
// and the returned tensor — are released back to the session as soon as the
// next layer has consumed them, so a session with an arena runs the whole
// forward pass without allocating in steady state.  The caller owns the
// returned tensor and releases it when done.
func (n *Network) Forward(ex *sim.Exec, sess *aimotif.Session, in *tensor.Tensor) (*tensor.Tensor, error) {
	cur := in
	for _, l := range n.Layers {
		next, err := l.Forward(ex, sess, cur)
		if err != nil {
			// Release the in-flight intermediate too: a session must stay
			// bounded even when callers keep using it after failed steps.
			if cur != in {
				sess.Release(cur)
			}
			return nil, fmt.Errorf("dataflow: %s/%s: %w", n.Name, l.Name(), err)
		}
		if cur != in {
			sess.Release(cur)
		}
		cur = next
	}
	return cur, nil
}

// SessionConfig describes a distributed training run in the paper's setup:
// one parameter-server node and the remaining nodes as workers, a total step
// count split evenly across workers, and a per-step batch size.  SampleSteps
// controls how many steps are actually executed per worker; the rest are
// extrapolated.  CostScale additionally extrapolates per-step cost when the
// in-process network is a structurally faithful but numerically scaled-down
// version of the real one.
type SessionConfig struct {
	Name       string
	BatchSize  int
	TotalSteps int
	// SampleSteps is the number of steps actually executed per worker.
	SampleSteps int
	// SampleBatch is the batch size actually executed (defaults to BatchSize
	// capped at 8); the difference is folded into the extrapolation factor.
	SampleBatch int
	// CostScale multiplies the extrapolation factor to account for running a
	// reduced-width version of the real network in-process.
	CostScale float64
	// Input describes the image data set.
	Input datagen.ImageConfig
	// BackwardCostFactor is the modelled cost of the backward pass relative
	// to forward (defaults to 2.0, the usual rule of thumb).
	BackwardCostFactor float64
}

// tensorflowCodeFootprintBytes models the instruction working set of the
// TensorFlow runtime (graph executor, Eigen kernels, protobuf/RPC stack).
const tensorflowCodeFootprintBytes = 3 * 1024 * 1024

const tensorflowJumpsPer1k = 110

// Validate reports configuration errors.
func (c SessionConfig) Validate() error {
	if c.BatchSize <= 0 || c.TotalSteps <= 0 {
		return fmt.Errorf("dataflow: session %q needs positive batch size and steps", c.Name)
	}
	if c.SampleSteps <= 0 {
		return fmt.Errorf("dataflow: session %q needs at least one sampled step", c.Name)
	}
	return c.Input.Validate()
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.SampleBatch <= 0 {
		c.SampleBatch = c.BatchSize
		if c.SampleBatch > 8 {
			c.SampleBatch = 8
		}
	}
	if c.CostScale <= 0 {
		c.CostScale = 1
	}
	if c.BackwardCostFactor <= 0 {
		c.BackwardCostFactor = 2
	}
	return c
}

// Result summarises a training run.
type Result struct {
	// Loss is the sampled cross-entropy-style loss of the final executed
	// step (evidence that real computation happened).
	Loss float64
	// StepsExecuted is the number of steps actually run in-process.
	StepsExecuted int
	// Scale is the extrapolation factor applied per worker step.
	Scale float64
}

// Train runs the distributed training session on the cluster: the master
// node acts as the parameter server, every worker executes its share of the
// steps (sampled and extrapolated), exchanging gradients and parameters with
// the parameter server after every step.
//
// In host time the per-worker tasks execute concurrently (one goroutine per
// simulated node, via the cluster's parallel stage execution) and each
// task's layer forwards additionally parallelise inside the aimotif kernels
// over batch/output-channel slices; both levels share the worker pool of
// package parallel and produce bit-identical results at any worker count.
func Train(cluster *sim.Cluster, net *Network, cfg SessionConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if net == nil || len(net.Layers) == 0 {
		return Result{}, fmt.Errorf("dataflow: empty network")
	}
	workers := cluster.Config().WorkerNodes()
	if workers <= 0 {
		workers = 1
	}
	stepsPerWorker := cfg.TotalSteps / workers
	if stepsPerWorker < 1 {
		stepsPerWorker = 1
	}
	sampleSteps := cfg.SampleSteps
	if sampleSteps > stepsPerWorker {
		sampleSteps = stepsPerWorker
	}
	// Per-step extrapolation: configured batch vs sampled batch, total steps
	// vs sampled steps, and the cost of the real network vs the in-process
	// one.
	scale := float64(stepsPerWorker) / float64(sampleSteps) *
		float64(cfg.BatchSize) / float64(cfg.SampleBatch) *
		cfg.CostScale

	paramBytes := uint64(net.ParamCount()) * 4

	// Session setup: graph construction, device placement, variable init.
	cluster.AdvanceTime(cfg.Name+":setup", 6)

	var lastLoss float64
	cores := cluster.Config().Profile.TotalCores()
	tasks := make([]sim.Task, workers)
	losses := make([]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		tasks[w] = sim.Task{Node: -1, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(tensorflowCodeFootprintBytes, tensorflowJumpsPer1k)
			sess := aimotif.NewSession()
			for step := 0; step < sampleSteps; step++ {
				loss, err := runStep(ex, sess, net, cfg, int64(w*1000+step), paramBytes, cfg.BackwardCostFactor)
				if err != nil {
					errs[w] = err
					return
				}
				losses[w] = loss
			}
		}}
	}
	cluster.RunStage(cfg.Name+":train", tasks, cores, scale)
	for _, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("dataflow: session %q: %w", cfg.Name, err)
		}
	}

	// Parameter server work: apply the aggregated gradients once per step.
	psUpdates := uint64(stepsPerWorker) * uint64(workers)
	cluster.RunOnNode(cfg.Name+":parameter-server", 0, 1, func(ex *sim.Exec) {
		ex.SetCodeFootprint(tensorflowCodeFootprintBytes, tensorflowJumpsPer1k)
		// Each update streams the gradient and parameter vectors once.
		ex.NetRecv(paramBytes * psUpdates)
		ex.NetSend(paramBytes * psUpdates)
		ex.Float(uint64(net.ParamCount()) * 2 * psUpdates)
	})

	cluster.AdvanceTime(cfg.Name+":checkpoint", 2)

	for _, l := range losses {
		if l != 0 {
			lastLoss = l
		}
	}
	return Result{Loss: lastLoss, StepsExecuted: sampleSteps * workers, Scale: scale}, nil
}

// runStep executes one sampled training step: read a batch, forward pass,
// modelled backward pass, gradient exchange with the parameter server.  The
// step's batch and output are released back to the session before it
// returns, so the session's region cache stays bounded by the network size
// however many steps a long-lived server runs.
func runStep(ex *sim.Exec, sess *aimotif.Session, net *Network, cfg SessionConfig, seed int64, paramBytes uint64, backward float64) (float64, error) {
	imgCfg := cfg.Input
	imgCfg.Count = cfg.SampleBatch
	imgCfg.Seed = seed
	images, err := datagen.GenerateImages(imgCfg)
	if err != nil {
		return 0, err
	}
	batch := aimotif.ImagesToTensor(images, imgCfg.Channels, imgCfg.Height, imgCfg.Width)
	// Input pipeline: decode/augment from local data, negligible disk I/O
	// (the paper observes ~0.2-0.5 MB/s for the AI workloads).
	ex.ReadDisk(uint64(cfg.SampleBatch) * uint64(imgCfg.PixelsPerImage()))
	ex.Int(uint64(batch.Size()) * 2)

	out, err := net.Forward(ex, sess, batch)
	if err != nil {
		return 0, err
	}
	// Backward pass: modelled as an additional pass over the network's
	// parameters and activations, weighted by the backward cost factor.
	extra := uint64(float64(net.ParamCount()) * backward)
	ex.Float(extra * uint64(cfg.SampleBatch))
	actRegion := ex.Node().Alloc(uint64(net.ParamCount()) * 4)
	ex.Load(actRegion, 0, uint64(net.ParamCount())*4)
	ex.Store(actRegion, 0, uint64(net.ParamCount())*2)

	// Gradient push / parameter pull with the parameter server.
	ex.NetSend(paramBytes)
	ex.NetRecv(paramBytes)

	// Cross-entropy-style loss over the output (softmax if the last layer
	// was not one already).
	labels := datagen.Labels(seed, cfg.SampleBatch, 10)
	loss := crossEntropy(out, labels)
	sess.Release(out)
	sess.Release(batch)
	return loss, nil
}

// crossEntropy computes a simple negative-log-likelihood style loss over the
// network output; classes index modulo the output width.
func crossEntropy(out *tensor.Tensor, labels []int) float64 {
	if out.Rank() != 2 || out.Dim(0) == 0 || out.Dim(1) == 0 {
		return 0
	}
	n, c := out.Dim(0), out.Dim(1)
	var loss float64
	for b := 0; b < n && b < len(labels); b++ {
		p := float64(out.At(b, labels[b]%c))
		if p < 1e-9 {
			p = 1e-9
		}
		loss += -logApprox(p)
	}
	return loss / float64(n)
}

// logApprox is a small natural-log approximation adequate for a loss value.
func logApprox(x float64) float64 {
	// Use the identity ln(x) via math is fine, but avoid importing math for
	// one call site... simplicity wins: series around 1 is not robust, so we
	// keep precision by repeated halving.
	n := 0
	for x < 0.5 {
		x *= 2
		n++
	}
	for x > 1.5 {
		x /= 2
		n--
	}
	t := x - 1
	// 4-term Taylor series of ln(1+t).
	ln := t - t*t/2 + t*t*t/3 - t*t*t*t/4
	const ln2 = 0.6931471805599453
	return ln - float64(n)*ln2
}

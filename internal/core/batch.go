package core

import (
	"fmt"

	"dataproxy/internal/motif"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
)

// RunBatch evaluates the proxy benchmark under K settings in one sweep and
// returns one report per setting, in input order, each bit-identical
// (runtime, counters, metrics, stages) to what Run, a one-lane batch,
// returns for that setting alone.
//
// Settings whose effective parameters drive the same execution trace — same
// sampled input, chunking and task split, differing only in the pure
// extrapolation parameters dataSize (when the clamped sample volume is
// unchanged) and weight — form a trace group: the group's motif compute runs
// once on one pooled cluster, every input record is generated once and every
// weight-stream cache line is touched once, while a sim.Batch carries one
// counter lane per setting through the accounting pass.  Distinct trace
// groups run concurrently on the parallel engine, one pooled cluster each.
// A nil entry in settings means DefaultSetting, like Run's nil setting.
//
// On error the whole batch fails; the returned error is the first failing
// group's in first-appearance order of the groups.
func RunBatch(pool *sim.ClusterPool, b *Benchmark, settings []Setting) ([]sim.Report, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	norm := make([]Setting, len(settings))
	for i, s := range settings {
		if s == nil {
			s = DefaultSetting()
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch setting %d: %w", i, err)
		}
		norm[i] = s
	}

	// Group the settings by trace key in first-appearance order.  Iteration
	// over the ordered group slice (never over the map) keeps result and
	// error order deterministic.
	type traceGroup struct {
		indexes []int
	}
	var order []*traceGroup
	byKey := make(map[string]*traceGroup)
	for i, s := range norm {
		key := b.traceKey(s)
		g := byKey[key]
		if g == nil {
			g = &traceGroup{}
			byKey[key] = g
			order = append(order, g)
		}
		g.indexes = append(g.indexes, i)
	}

	reports := make([]sim.Report, len(norm))
	errs := make([]error, len(order))
	parallel.For(len(order), 1, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g := order[gi]
			gs := make([]Setting, len(g.indexes))
			for j, idx := range g.indexes {
				gs[j] = norm[idx]
			}
			cluster := pool.Get()
			reps, err := b.runGroup(cluster, gs)
			pool.Put(cluster)
			if err != nil {
				errs[gi] = err
				continue
			}
			for j, idx := range g.indexes {
				reports[idx] = reps[j]
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range reports {
		if err := checkReportInvariants(b, reports[i]); err != nil {
			return nil, fmt.Errorf("core: batch setting %d: %w", i, err)
		}
	}
	return reports, nil
}

// TraceKey renders the fields of the effective parameter vector that shape
// the execution trace — the grouping key RunBatch merges settings under.
// Settings with equal trace keys can ride one simulation: they differ only
// in pure extrapolation factors (dataSize with an unchanged clamped sample,
// and weight), so one motif compute serves every lane of the group.  The
// serving layer's cross-request coalescer uses it to account how many
// simulations a merged sweep actually performs.
func (b *Benchmark) TraceKey(s Setting) string { return b.traceKey(s) }

// traceKey renders the fields of the effective parameter vector that shape
// the execution trace: the clamped sample volume plus every parameter the
// input generator or the task split may read.  Settings with equal trace
// keys differ only in dataSize (with an unchanged clamped sample) and
// weight, which enter the simulation purely as per-task extrapolation
// factors, so their motif compute can be shared.
func (b *Benchmark) traceKey(s Setting) string {
	p := b.Base.Apply(s)
	return fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%d",
		b.effectiveSampleBytes(p), p.ChunkSize, p.NumTasks,
		p.BatchSize, p.TotalSize, p.HeightSize, p.WidthSize, p.NumChannels)
}

// runGroup executes one trace group on the given cluster: the shared trace
// (input generation, motif compute, chunking) runs once, and a sim.Batch
// accounts it into one lane per setting with that setting's extrapolation
// factors.  The input is generated as a lightly-accounted stage of its
// own, then each edge runs in topological order.
func (b *Benchmark) runGroup(cluster *sim.Cluster, settings []Setting) ([]sim.Report, error) {
	k := len(settings)
	ps := make([]Params, k)
	for i, s := range settings {
		ps[i] = b.Base.Apply(s)
	}
	// All settings of a group share the trace shape; ps[0] supplies every
	// shape parameter (the Benchmark.Input contract guarantees the generator
	// reads neither DataSize nor Weight, the only fields varying in-group).
	shape := ps[0]
	sampleBytes := b.effectiveSampleBytes(shape)

	batch := sim.NewBatch(cluster, k)

	node := 0
	if workers := cluster.Workers(); len(workers) > 0 {
		node = workers[0].ID()
	}

	datasets := map[string]*motif.Dataset{}
	edges, err := b.sortedEdges()
	if err != nil {
		return nil, err
	}

	// The sampled input carries the original workload's data type and
	// distribution.  Big data proxies stream their whole configured input
	// volume from disk, so the sampled read is extrapolated to DataSize
	// bytes; AI proxies only read the sampled batch (the paper measures
	// near-zero disk traffic for the AI workloads).
	inputScales := make([]float64, k)
	for i, p := range ps {
		inputScales[i] = 1
		if b.SpillIntermediate && p.DataSize > 0 && sampleBytes > 0 {
			inputScales[i] = float64(p.DataSize) / float64(sampleBytes)
		}
	}
	var input *motif.Dataset
	batch.RunOnNode(b.Name+":input", node, inputScales, func(ex *sim.Exec) {
		ex.SetCodeFootprint(b.codeFootprint(), proxyJumpsPer1k)
		input = b.Input(7, sampleBytes, shape)
		if input == nil {
			input = &motif.Dataset{}
		}
		ex.ReadDisk(input.SizeBytes())
	})
	datasets[InputNode] = input

	for _, e := range edges {
		in := datasets[e.From]
		if in == nil {
			return nil, fmt.Errorf("core: benchmark %s edge %s consumes missing data set %q", b.Name, e.Name, e.From)
		}
		out, err := b.runEdgeBatch(batch, node, e, in, ps, settings)
		if err != nil {
			return nil, err
		}
		datasets[e.To] = out
	}
	return batch.Reports(b.Name), nil
}

// runEdgeBatch executes one motif edge for a trace group: the input sample
// is split into chunks of at most ChunkSize bytes, distributed over
// NumTasks worker tasks, and run once; each lane's counters are then
// extrapolated so the edge represents that lane's DataSize * Weight bytes
// of processed data.
func (b *Benchmark) runEdgeBatch(batch *sim.Batch, node int, e Edge, in *motif.Dataset, ps []Params, settings []Setting) (*motif.Dataset, error) {
	impl, err := motif.Lookup(e.Impl)
	if err != nil {
		return nil, err
	}
	shape := ps[0]
	numTasks := shape.NumTasks
	if numTasks < 1 {
		numTasks = 1
	}
	inBytes := in.SizeBytes()
	if inBytes == 0 {
		inBytes = 1
	}
	scales := make([]float64, len(ps))
	for i, p := range ps {
		work := float64(p.DataSize) * e.Weight * settings[i].Get("weight")
		if p.DataSize == 0 {
			work = float64(p.TotalSize) * e.Weight * settings[i].Get("weight")
		}
		if work <= 0 {
			work = float64(inBytes)
		}
		scale := work / float64(inBytes)
		if scale < 1 {
			scale = 1
		}
		scales[i] = scale
	}

	shares := splitDataset(in, numTasks)
	taskScales := scales
	if len(shares) == 1 && numTasks > 1 {
		// Unsplittable data set: every task would process the whole
		// sample, so spread each lane's represented work across them.
		taskScales = make([]float64, len(scales))
		for i, s := range scales {
			taskScales[i] = s / float64(numTasks)
		}
	}
	outputs := make([]*motif.Dataset, len(shares))
	tasks := make([]sim.BatchTask, len(shares))
	stageName := b.Name + ":" + e.name()
	for i := range shares {
		i := i
		share := shares[i]
		tasks[i] = sim.BatchTask{Node: node, Scales: taskScales, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(b.codeFootprint(), proxyJumpsPer1k)
			outputs[i] = runChunked(ex, impl, share, shape.ChunkSize)
			if b.SpillIntermediate && outputs[i] != nil {
				ex.WriteDisk(outputs[i].SizeBytes())
			}
		}}
	}
	batch.RunStage(stageName, tasks, numTasks)
	return mergeDatasets(outputs), nil
}

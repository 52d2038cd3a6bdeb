package core

import (
	"fmt"
	"sync"

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
// counter lane per setting through the accounting pass.
//
// store keeps the trace of every group the call executes, and a group it
// already serves (TraceStore) is accounted from the recorded trace instead
// of simulated; a nil store means a private one for this call.  Those groups
// are accounted first, on the calling goroutine.  The remaining groups then
// fan out by shape on the parallel engine, one pooled cluster each: groups
// of one shape run one after another, so the trace the first records can
// serve the next, while different shapes run concurrently.  The replays
// come first because parallel.For hands each worker a contiguous range of
// the groups, and a range holding only replays would leave its worker idle.
// A nil entry in settings means DefaultSetting, like Run's nil setting.
//
// On error the whole batch fails; the returned error is the first failing
// group's in first-appearance order of the groups.
func RunBatch(pool *sim.ClusterPool, b *Benchmark, settings []Setting, store *TraceStore) ([]sim.Report, error) {
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
	if store == nil {
		store = &TraceStore{}
	}
	proto := pool.Proto()

	// Group the settings by trace key in first-appearance order.  Iteration
	// over the ordered group and shape slices (never over the maps) keeps
	// result and error order deterministic.
	type traceGroup struct {
		shape     traceShape
		chunkSize uint64
		indexes   []int
		settings  []Setting
		err       error
	}
	var order []*traceGroup
	byKey := make(map[string]*traceGroup)
	for i, s := range norm {
		key := b.traceKey(s)
		g := byKey[key]
		if g == nil {
			p := b.Base.Apply(s)
			g = &traceGroup{
				shape:     traceShape{b: b, cluster: proto.Fingerprint(), shape: b.shapeKey(p)},
				chunkSize: p.ChunkSize,
			}
			byKey[key] = g
			order = append(order, g)
		}
		g.indexes = append(g.indexes, i)
		g.settings = append(g.settings, s)
	}

	reports := make([]sim.Report, len(norm))
	replay := func(g *traceGroup) bool {
		tr := store.lookup(g.shape, g.chunkSize)
		if tr == nil {
			return false
		}
		for j, rep := range b.replayGroup(proto, tr, g.settings) {
			reports[g.indexes[j]] = rep
		}
		return true
	}
	var shapes [][]*traceGroup
	shapeIndex := make(map[string]int)
	for _, g := range order {
		if replay(g) {
			continue
		}
		si, ok := shapeIndex[g.shape.shape]
		if !ok {
			si = len(shapes)
			shapeIndex[g.shape.shape] = si
			shapes = append(shapes, nil)
		}
		shapes[si] = append(shapes[si], g)
	}
	parallel.For(len(shapes), 1, func(lo, hi int) {
		for si := lo; si < hi; si++ {
			for _, g := range shapes[si] {
				if replay(g) {
					continue
				}
				cluster := pool.Get()
				reps, tr, err := b.runGroup(cluster, g.settings)
				pool.Put(cluster)
				if err != nil {
					g.err = err
					continue
				}
				store.add(g.shape, tr)
				for j, rep := range reps {
					reports[g.indexes[j]] = rep
				}
			}
		}
	})
	for _, g := range order {
		if g.err != nil {
			return nil, g.err
		}
	}
	for i := range reports {
		if err := checkReportInvariants(b, reports[i]); err != nil {
			return nil, fmt.Errorf("core: batch setting %d: %w", i, err)
		}
	}
	return reports, nil
}

// TraceStore keeps the traces of the trace groups RunBatch executes, so
// that a later group is accounted from a recorded trace instead of
// simulated again.  It is keyed by the benchmark, the cluster configuration
// and the group's shape: its trace key without chunkSize.  chunkSize only
// decides which task shares runChunked chunks, so a recorded trace serves a
// group of its shape when it ran at the group's chunk size, or when it
// chunked no share and the group's chunk size is 0 or at least the largest
// share a task ran: every share then runs whole at either chunk size, and
// the two runs would execute the same trace.
//
// The benchmark is keyed by its pointer, not its name, because distinct
// benchmarks may share a name (KMeansWithSparsity builds one per sparsity).
// A store keeps its traces for as long as it lives, so its owner bounds it:
// tuner.MemoEvaluator keeps one for the evaluator's lifetime.  Two
// concurrent calls may both simulate a shape the store does not hold yet;
// either trace serves later groups.  The zero value is an empty store, safe
// for concurrent use.
type TraceStore struct {
	mu     sync.Mutex
	traces map[traceShape][]*groupTrace
}

// traceShape is a TraceStore key.
type traceShape struct {
	b       *Benchmark
	cluster string
	shape   string
}

// lookup returns a recorded trace of the shape that serves a group run at
// the given chunk size, or nil.
func (s *TraceStore) lookup(k traceShape, chunkSize uint64) *groupTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range s.traces[k] {
		if tr.serves(chunkSize) {
			return tr
		}
	}
	return nil
}

// add records an executed trace of the shape.
func (s *TraceStore) add(k traceShape, tr *groupTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.traces == nil {
		s.traces = make(map[traceShape][]*groupTrace)
	}
	s.traces[k] = append(s.traces[k], tr)
}

// groupTrace is one executed trace group: the input stage and, per edge in
// execution order, its stage trace and the inputs its lane scales are
// computed from, plus what the chunk rule of TraceStore reads.
type groupTrace struct {
	input sim.StageTrace
	edges []edgeTrace
	// chunkSize is the chunk size the group ran at; chunked reports whether
	// runChunked chunked any share, and maxShare is the largest share a
	// task ran whole.
	chunkSize uint64
	chunked   bool
	maxShare  uint64
}

// serves reports whether the trace reproduces a group of its shape run at
// the given chunk size.
func (tr *groupTrace) serves(chunkSize uint64) bool {
	return chunkSize == tr.chunkSize || !tr.chunked && (chunkSize == 0 || chunkSize >= tr.maxShare)
}

// edgeTrace is one edge of a recorded trace group.
type edgeTrace struct {
	stage sim.StageTrace
	edgeInput
}

// edgeInput is what an edge's lane scales are computed from besides each
// lane's parameters: the edge's DAG weight, the bytes of its input data set
// (at least 1), the number of shares that input split into and the task
// count it was split for (at least 1).
type edgeInput struct {
	weight   float64
	inBytes  uint64
	shares   int
	numTasks int
}

// TraceKey renders the fields of the effective parameter vector that shape
// the execution trace — the grouping key RunBatch merges settings under.
// Settings with equal trace keys can ride one simulation: they differ only
// in pure extrapolation factors (dataSize with an unchanged clamped sample,
// and weight), so one motif compute serves every lane of the group.  The
// serving layer's cross-request coalescer uses it to count the trace groups
// a merged sweep evaluates cold, and the fleet router to shard by group.
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

// shapeKey renders a trace group's shape: the fields of traceKey except
// the chunk size, which TraceStore matches separately.
func (b *Benchmark) shapeKey(p Params) string {
	return fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d",
		b.effectiveSampleBytes(p), p.NumTasks,
		p.BatchSize, p.TotalSize, p.HeightSize, p.WidthSize, p.NumChannels)
}

// runGroup executes one trace group on the given cluster: the shared trace
// (input generation, motif compute, chunking) runs once, and a sim.Batch
// accounts it into one lane per setting with that setting's extrapolation
// factors.  The input is generated as a lightly-accounted stage of its
// own, then each edge runs in topological order.  It returns the lane
// reports and the recorded trace.
func (b *Benchmark) runGroup(cluster *sim.Cluster, settings []Setting) ([]sim.Report, *groupTrace, error) {
	ps := b.apply(settings)
	// All settings of a group share the trace shape; ps[0] supplies every
	// shape parameter (the Benchmark.Input contract guarantees the generator
	// reads neither DataSize nor Weight, the only fields varying in-group).
	shape := ps[0]
	sampleBytes := b.effectiveSampleBytes(shape)

	batch := sim.NewBatch(cluster, len(ps))

	node := 0
	if workers := cluster.Workers(); len(workers) > 0 {
		node = workers[0].ID()
	}

	datasets := map[string]*motif.Dataset{}
	edges, err := b.sortedEdges()
	if err != nil {
		return nil, nil, err
	}

	tr := &groupTrace{chunkSize: shape.ChunkSize}
	var input *motif.Dataset
	tr.input = batch.RunOnNode(b.Name+":input", node, b.inputScales(ps, sampleBytes), func(ex *sim.Exec) {
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
			return nil, nil, fmt.Errorf("core: benchmark %s edge %s consumes missing data set %q", b.Name, e.Name, e.From)
		}
		out, err := b.runEdgeBatch(batch, node, e, in, ps, settings, tr)
		if err != nil {
			return nil, nil, err
		}
		datasets[e.To] = out
	}
	return batch.Reports(b.Name), tr, nil
}

// replayGroup accounts a trace group from a recorded trace that serves it,
// on a replay batch over the pool's prototype: the input stage and every
// edge at the lane factors runGroup computes, without simulating anything.
func (b *Benchmark) replayGroup(proto *sim.Cluster, tr *groupTrace, settings []Setting) []sim.Report {
	ps := b.apply(settings)
	batch := sim.NewReplay(proto, len(ps))
	batch.Account(tr.input, b.inputScales(ps, b.effectiveSampleBytes(ps[0])))
	for _, et := range tr.edges {
		batch.Account(et.stage, edgeScales(et.edgeInput, ps, settings))
	}
	return batch.Reports(b.Name)
}

// apply resolves each setting's effective parameters.
func (b *Benchmark) apply(settings []Setting) []Params {
	ps := make([]Params, len(settings))
	for i, s := range settings {
		ps[i] = b.Base.Apply(s)
	}
	return ps
}

// inputScales returns each lane's extrapolation factor for the input
// stage.  The sampled input carries the original workload's data type and
// distribution.  Big data proxies stream their whole configured input
// volume from disk, so the sampled read is extrapolated to DataSize bytes;
// AI proxies only read the sampled batch (the paper measures near-zero disk
// traffic for the AI workloads).
func (b *Benchmark) inputScales(ps []Params, sampleBytes uint64) []float64 {
	scales := make([]float64, len(ps))
	for i, p := range ps {
		scales[i] = 1
		if b.SpillIntermediate && p.DataSize > 0 && sampleBytes > 0 {
			scales[i] = float64(p.DataSize) / float64(sampleBytes)
		}
	}
	return scales
}

// edgeScales returns each lane's per-task extrapolation factor for one
// edge, so the edge represents that lane's DataSize * Weight bytes of
// processed data (TotalSize for a proxy without a data size), never less
// than the sample itself.  When the input could not be split, every task
// processes the whole sample, so the lane's work is spread across the
// tasks.
func edgeScales(in edgeInput, ps []Params, settings []Setting) []float64 {
	scales := make([]float64, len(ps))
	for i, p := range ps {
		work := float64(p.DataSize) * in.weight * settings[i].Get("weight")
		if p.DataSize == 0 {
			work = float64(p.TotalSize) * in.weight * settings[i].Get("weight")
		}
		if work <= 0 {
			work = float64(in.inBytes)
		}
		scale := work / float64(in.inBytes)
		if scale < 1 {
			scale = 1
		}
		if in.shares == 1 && in.numTasks > 1 {
			scale /= float64(in.numTasks)
		}
		scales[i] = scale
	}
	return scales
}

// runEdgeBatch executes one motif edge for a trace group: the input sample
// is split into shares for NumTasks worker tasks, each run in chunks of at
// most ChunkSize bytes, once; each lane's counters are then extrapolated by
// edgeScales.  It appends the edge to the group's trace and folds its
// shares into the trace's chunk record.
func (b *Benchmark) runEdgeBatch(batch *sim.Batch, node int, e Edge, in *motif.Dataset, ps []Params, settings []Setting, tr *groupTrace) (*motif.Dataset, error) {
	impl, err := motif.Lookup(e.Impl)
	if err != nil {
		return nil, err
	}
	shape := ps[0]
	ei := edgeInput{weight: e.Weight, inBytes: in.SizeBytes(), numTasks: shape.NumTasks}
	if ei.numTasks < 1 {
		ei.numTasks = 1
	}
	if ei.inBytes == 0 {
		ei.inBytes = 1
	}
	shares := splitDataset(in, ei.numTasks)
	ei.shares = len(shares)
	taskScales := edgeScales(ei, ps, settings)

	outputs := make([]*motif.Dataset, len(shares))
	tasks := make([]sim.BatchTask, len(shares))
	stageName := b.Name + ":" + e.name()
	for i := range shares {
		i := i
		share := shares[i]
		if chunks(share, shape.ChunkSize) {
			tr.chunked = true
		} else {
			tr.maxShare = max(tr.maxShare, share.SizeBytes())
		}
		tasks[i] = sim.BatchTask{Node: node, Scales: taskScales, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(b.codeFootprint(), proxyJumpsPer1k)
			outputs[i] = runChunked(ex, impl, share, shape.ChunkSize)
			if b.SpillIntermediate && outputs[i] != nil {
				ex.WriteDisk(outputs[i].SizeBytes())
			}
		}}
	}
	tr.edges = append(tr.edges, edgeTrace{stage: batch.RunStage(stageName, tasks, ei.numTasks), edgeInput: ei})
	return mergeDatasets(outputs), nil
}

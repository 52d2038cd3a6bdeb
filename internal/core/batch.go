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
// store keeps the trace of every group the call executes; a group it
// already serves whole (TraceStore) is accounted from the recorded trace
// instead of simulated, and a group it can resume runs only the edges after
// the recorded trace's resume point.  A nil store means a private one for
// this call.  The whole replays are accounted first, on the calling
// goroutine.  The remaining groups then fan out in buckets on the parallel
// engine, one pooled cluster each; the groups of one bucket run one after
// another, so the trace the first records can serve the next, while the
// buckets run concurrently.  A shape whose input no task count splits
// (AlexNet, Inception-V3, PageRank) is one bucket: its first group
// simulates and the rest replay or resume.  A shape whose input splits
// (TeraSort, K-means) is one bucket per task count, so its task counts
// still simulate side by side.  The first edge always consumes the input,
// so the input alone decides the rule: for each shape the store holds no
// trace of, RunBatch generates the input once, before the fan-out, and
// each group that starts at the input stage takes a struct copy of it; for
// a shape the store holds, a stored trace's fixed edges answer it.  The
// replays come first because parallel.For hands each worker a contiguous
// range of the buckets, and a range holding only replays would leave its
// worker idle.
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
	// over the ordered group and bucket slices (never over the maps) keeps
	// result and error order deterministic.
	type traceGroup struct {
		shape     traceShape
		numTasks  int
		chunkSize uint64
		indexes   []int
		settings  []Setting
		// input is the shape's input generated before the fan-out, nil when
		// the store held a trace of the shape.
		input *motif.Dataset
		err   error
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
				numTasks:  taskCount(p),
				chunkSize: p.ChunkSize,
			}
			byKey[key] = g
			order = append(order, g)
		}
		g.indexes = append(g.indexes, i)
		g.settings = append(g.settings, s)
	}

	reports := make([]sim.Report, len(norm))
	scatter := func(g *traceGroup, reps []sim.Report) {
		for j, rep := range reps {
			reports[g.indexes[j]] = rep
		}
	}
	// replay accounts g from a stored trace that serves it whole and
	// reports whether it did; otherwise it returns the trace g can resume,
	// or nil.
	replay := func(g *traceGroup) (*groupTrace, bool) {
		tr, whole := store.lookup(g.shape, g.numTasks, g.chunkSize)
		if whole {
			scatter(g, b.replayGroup(proto, tr, g.settings))
		}
		return tr, whole
	}
	type bucketKey struct {
		shape    string
		numTasks int // 0 for a shape whose input does not split
	}
	inputs := make(map[string]*motif.Dataset)
	var buckets [][]*traceGroup
	bucketIndex := make(map[bucketKey]int)
	for _, g := range order {
		if _, done := replay(g); done {
			continue
		}
		splits, recorded := store.splits(g.shape)
		if !recorded {
			in, ok := inputs[g.shape.shape]
			if !ok {
				in = b.generateInput(b.Base.Apply(g.settings[0]))
				inputs[g.shape.shape] = in
			}
			g.input, splits = in, !unsplittable(in)
		}
		k := bucketKey{shape: g.shape.shape}
		if splits {
			k.numTasks = g.numTasks
		}
		bi, ok := bucketIndex[k]
		if !ok {
			bi = len(buckets)
			bucketIndex[k] = bi
			buckets = append(buckets, nil)
		}
		buckets[bi] = append(buckets[bi], g)
	}
	parallel.For(len(buckets), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			for _, g := range buckets[bi] {
				from, done := replay(g)
				if done {
					continue
				}
				cluster := pool.Get()
				reps, tr, err := b.runGroup(cluster, g.settings, from, g.input)
				pool.Put(cluster)
				if err != nil {
					g.err = err
					continue
				}
				store.add(g.shape, tr)
				scatter(g, reps)
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
// simulated again, or resumes one part way.  It is keyed by the benchmark,
// the cluster configuration and the group's shape: its trace key without
// chunkSize and numTasks.
//
// chunkSize only decides which task shares runChunked chunks, so edges run
// at another chunk size execute as the trace's did when the trace ran them
// at that chunk size, or chunked none of their shares and the chunk size is
// 0 or at least the largest share they ran whole: every share then runs
// whole at either chunk size (the chunk rule).  numTasks reaches execution
// only through splitDataset, so the leading edges whose input no task
// count splits (the trace's fixed edges) execute alike at every task
// count; the task count enters them only through accounting.
//
// A trace therefore serves a group whole when the chunk rule holds over all
// its edges and the group has the trace's task count, or every edge is
// fixed.  Otherwise a trace with a resume point, taken just before its
// first edge that some task count splits, serves the group by resuming
// there when the chunk rule holds over its fixed edges.  A lookup prefers a
// trace that serves the group whole.
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
// the given task count and chunk size, and whether it serves the group
// whole; a trace it does not serve whole is one the group can resume.  It
// returns nil when no trace serves the group.
func (s *TraceStore) lookup(k traceShape, numTasks int, chunkSize uint64) (*groupTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var resumable *groupTrace
	for _, tr := range s.traces[k] {
		if (numTasks == tr.numTasks || tr.fixed == len(tr.edges)) && tr.runsAlike(len(tr.edges), chunkSize) {
			return tr, true
		}
		if resumable == nil && tr.resume != nil && tr.runsAlike(tr.fixed, chunkSize) {
			resumable = tr
		}
	}
	return resumable, false
}

// splits reports whether the input of the shape splits, read from a trace
// of it the store holds, and whether it holds one.  A trace's first edge
// consumes the input, so the trace has fixed edges exactly when the input
// does not split.
func (s *TraceStore) splits(k traceShape) (splits, recorded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if traces := s.traces[k]; len(traces) > 0 {
		return traces[0].fixed == 0, true
	}
	return false, false
}

// Groups returns how many of the store's traces were simulated from the
// input stage and how many resumed at another trace's resume point; a
// group accounted from a recorded trace whole adds to neither.
func (s *TraceStore) Groups() (simulated, resumed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, traces := range s.traces {
		for _, tr := range traces {
			if tr.resumed {
				resumed++
			} else {
				simulated++
			}
		}
	}
	return simulated, resumed
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
// execution order, its edge trace, plus what the TraceStore rules read.
type groupTrace struct {
	input sim.StageTrace
	edges []edgeTrace
	// numTasks and chunkSize are the task count (at least 1) and the chunk
	// size the group ran at.
	numTasks  int
	chunkSize uint64
	// fixed counts the leading edges whose input no task count splits
	// (unsplittable).
	fixed int
	// resume is the group's state just before edge fixed, kept when
	// 0 < fixed < len(edges) and shared by the traces of the groups that
	// resumed there; nil otherwise.
	resume *resumePoint
	// resumed reports whether the group resumed at another trace's resume
	// point instead of starting at the input stage.
	resumed bool
}

// runsAlike reports whether the trace's first n edges, run at the given
// chunk size, execute as the trace's did: the chunk rule of TraceStore.
func (tr *groupTrace) runsAlike(n int, chunkSize uint64) bool {
	if chunkSize == tr.chunkSize {
		return true
	}
	for _, et := range tr.edges[:n] {
		if et.chunked || chunkSize != 0 && chunkSize < et.maxShare {
			return false
		}
	}
	return true
}

// resumePoint is a trace group's state just before its first edge that
// some task count splits: the cluster's exported state and the data sets
// produced so far, each a struct copy taken then, so that their allocated
// regions match the exported allocator.  It is never written after it is
// taken; a group resuming there takes its own struct copies.
type resumePoint struct {
	state    []byte
	datasets map[string]*motif.Dataset
}

// copyDatasets returns struct copies of the data sets.  The copies share
// the collections, which no motif writes (motif.Impl.Run's contract), and
// each carries its own region, so allocating one does not touch the
// original.
func copyDatasets(in map[string]*motif.Dataset) map[string]*motif.Dataset {
	out := make(map[string]*motif.Dataset, len(in))
	for name, d := range in {
		c := *d
		out[name] = &c
	}
	return out
}

// edgeTrace is one edge of a recorded trace group: its stage trace; what
// its lane scales are computed from besides each lane's parameters and the
// task count, namely the edge's DAG weight, the bytes of its input data set
// (at least 1) and the number of shares that input split into; and its
// chunk record, whether runChunked chunked any share and the largest share
// a task ran whole.
type edgeTrace struct {
	stage    sim.StageTrace
	weight   float64
	inBytes  uint64
	shares   int
	chunked  bool
	maxShare uint64
}

// TraceKey renders the fields of the effective parameter vector that shape
// the execution trace — the grouping key RunBatch merges settings under.
// Settings with equal trace keys can ride one simulation: they differ only
// in pure extrapolation factors (dataSize with an unchanged clamped sample,
// and weight), so one motif compute serves every lane of the group.  The
// serving layer's cross-request coalescer uses it to count the trace groups
// a merged sweep evaluates cold.
func (b *Benchmark) TraceKey(s Setting) string { return b.traceKey(s) }

// ShapeKey renders the shape of the setting's trace group: its trace key
// without the chunk size and the task count, the part a TraceStore keys
// traces by.  The fleet router shards by it, so every group of a shape
// reaches the one replica whose store can serve it.
func (b *Benchmark) ShapeKey(s Setting) string { return b.shapeKey(b.Base.Apply(s)) }

// traceKey renders the fields of the effective parameter vector that shape
// the execution trace: the input generator's arguments, the chunk size and
// the task count.  Settings with equal trace keys differ only in dataSize
// (with an unchanged clamped sample) and weight, which enter the
// simulation purely as per-task extrapolation factors, so their motif
// compute can be shared.
func (b *Benchmark) traceKey(s Setting) string {
	p := b.Base.Apply(s)
	return fmt.Sprintf("%d|%d|%d|%d", b.effectiveSampleBytes(p), p.ChunkSize, p.NumTasks, p.BatchSize)
}

// shapeKey renders a trace group's shape: the input generator's arguments
// (Benchmark.Input), the fields of traceKey other than the chunk size and
// the task count, which TraceStore matches separately.
func (b *Benchmark) shapeKey(p Params) string {
	return fmt.Sprintf("%d|%d", b.effectiveSampleBytes(p), p.BatchSize)
}

// taskCount is the number of tasks a group splits each edge's input for:
// NumTasks, at least 1.
func taskCount(p Params) int {
	return max(p.NumTasks, 1)
}

// runGroup executes one trace group on the given cluster: the shared trace
// (input generation, motif compute, chunking) runs once, and a sim.Batch
// accounts it into one lane per setting with that setting's extrapolation
// factors.  It returns the lane reports and the recorded trace.
//
// With a nil from, the group starts at the input stage, a
// lightly-accounted stage of its own.  input is the shape's generated
// input, which other groups may share: the group runs on a struct copy of
// it, so the regions it allocates stay its own.  A nil input is generated
// here.  Otherwise the group resumes at from's resume point: the cluster
// loads the exported state, the input stage and from's fixed edges are
// accounted from from's trace at this group's task count, and the group
// takes its own struct copies of the data sets.  Either way the remaining
// edges then run in topological order.
func (b *Benchmark) runGroup(cluster *sim.Cluster, settings []Setting, from *groupTrace, input *motif.Dataset) ([]sim.Report, *groupTrace, error) {
	ps := b.apply(settings)
	// All settings of a group share the trace key; ps[0] supplies every
	// field of it.  DataSize and Weight, the only fields varying in-group,
	// enter only the lane scales.
	shape := ps[0]
	edges, err := b.sortedEdges()
	if err != nil {
		return nil, nil, err
	}
	node := 0
	if workers := cluster.Workers(); len(workers) > 0 {
		node = workers[0].ID()
	}

	tr := &groupTrace{numTasks: taskCount(shape), chunkSize: shape.ChunkSize}
	var batch *sim.Batch
	var datasets map[string]*motif.Dataset
	if from == nil {
		if input == nil {
			input = b.generateInput(shape)
		}
		in := *input
		batch = sim.NewBatch(cluster, len(ps))
		tr.input = batch.RunOnNode(b.Name+":input", node, b.inputScales(ps, b.effectiveSampleBytes(shape)), func(ex *sim.Exec) {
			ex.SetCodeFootprint(proxyCodeFootprintBytes, proxyJumpsPer1k)
			ex.ReadDisk(in.SizeBytes())
		})
		datasets = map[string]*motif.Dataset{InputNode: &in}
	} else {
		if err := cluster.ImportState(from.resume.state); err != nil {
			return nil, nil, fmt.Errorf("core: benchmark %s: resuming a trace group: %w", b.Name, err)
		}
		batch = sim.NewReplay(cluster, len(ps))
		b.accountTrace(batch, from, from.fixed, ps)
		tr.input, tr.edges = from.input, from.edges[:from.fixed:from.fixed]
		tr.fixed, tr.resume, tr.resumed = from.fixed, from.resume, true
		datasets = copyDatasets(from.resume.datasets)
	}

	for _, e := range edges[len(tr.edges):] {
		in := datasets[e.From]
		if in == nil {
			return nil, nil, fmt.Errorf("core: benchmark %s edge %s consumes missing data set %q", b.Name, e.Name, e.From)
		}
		if tr.fixed == len(tr.edges) {
			if unsplittable(in) {
				tr.fixed++
			} else if tr.fixed > 0 && tr.resume == nil {
				tr.resume = &resumePoint{state: cluster.ExportState(), datasets: copyDatasets(datasets)}
			}
		}
		out, err := b.runEdgeBatch(batch, node, e, in, ps, tr)
		if err != nil {
			return nil, nil, err
		}
		datasets[e.To] = out
	}
	return batch.Reports(b.Name), tr, nil
}

// generateInput generates the sampled input of a group with the given
// effective parameters from the shape's generator arguments, so every
// group of the shape gets the same data set.
func (b *Benchmark) generateInput(shape Params) *motif.Dataset {
	if in := b.Input(7, b.effectiveSampleBytes(shape), shape.BatchSize); in != nil {
		return in
	}
	return &motif.Dataset{}
}

// replayGroup accounts a trace group from a recorded trace that serves it
// whole, on a replay batch over the pool's prototype, without simulating
// anything.
func (b *Benchmark) replayGroup(proto *sim.Cluster, tr *groupTrace, settings []Setting) []sim.Report {
	ps := b.apply(settings)
	batch := sim.NewReplay(proto, len(ps))
	b.accountTrace(batch, tr, len(tr.edges), ps)
	return batch.Reports(b.Name)
}

// accountTrace accounts the input stage and the first n edges of a
// recorded trace into the batch at each lane's factors and the group's
// task count, as runGroup accounts the stages it runs.
func (b *Benchmark) accountTrace(batch *sim.Batch, tr *groupTrace, n int, ps []Params) {
	numTasks := taskCount(ps[0])
	batch.Account(tr.input, 0, b.inputScales(ps, b.effectiveSampleBytes(ps[0])))
	for i := range tr.edges[:n] {
		et := &tr.edges[i]
		batch.Account(et.stage, numTasks, edgeScales(et, numTasks, ps))
	}
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
		if b.SpillIntermediate {
			scales[i] = float64(p.DataSize) / float64(sampleBytes)
		}
	}
	return scales
}

// edgeScales returns each lane's per-task extrapolation factor for one
// edge, so the edge represents DataSize times the lane's Weight times the
// edge's DAG weight bytes of processed data, never less than the sample
// itself.  When the input could not be split, every task processes the
// whole sample, so the lane's work is spread across the numTasks tasks.
func edgeScales(et *edgeTrace, numTasks int, ps []Params) []float64 {
	scales := make([]float64, len(ps))
	for i, p := range ps {
		scale := float64(p.DataSize) * et.weight * p.Weight / float64(et.inBytes)
		if scale < 1 {
			scale = 1
		}
		if et.shares == 1 && numTasks > 1 {
			scale /= float64(numTasks)
		}
		scales[i] = scale
	}
	return scales
}

// runEdgeBatch executes one motif edge for a trace group: the input sample
// is split into shares for the group's tasks, each run in chunks of at
// most ChunkSize bytes, once; each lane's counters are then extrapolated by
// edgeScales.  It appends the edge, with its chunk record, to the group's
// trace.
func (b *Benchmark) runEdgeBatch(batch *sim.Batch, node int, e Edge, in *motif.Dataset, ps []Params, tr *groupTrace) (*motif.Dataset, error) {
	impl, err := motif.Lookup(e.Impl)
	if err != nil {
		return nil, err
	}
	chunkSize := ps[0].ChunkSize
	et := edgeTrace{weight: e.Weight, inBytes: max(in.SizeBytes(), 1)}
	shares := splitDataset(in, tr.numTasks)
	et.shares = len(shares)
	outputs := make([]*motif.Dataset, len(shares))
	tasks := make([]sim.Task, len(shares))
	stageName := b.Name + ":" + e.name()
	for i := range shares {
		i := i
		share := shares[i]
		if chunks(share, chunkSize) {
			et.chunked = true
		} else {
			et.maxShare = max(et.maxShare, share.SizeBytes())
		}
		tasks[i] = sim.Task{Node: node, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(proxyCodeFootprintBytes, proxyJumpsPer1k)
			outputs[i] = runChunked(ex, impl, share, chunkSize)
			if b.SpillIntermediate && outputs[i] != nil {
				ex.WriteDisk(outputs[i].SizeBytes())
			}
		}}
	}
	et.stage = batch.RunStage(stageName, tasks, tr.numTasks, edgeScales(&et, tr.numTasks, ps))
	tr.edges = append(tr.edges, et)
	return mergeDatasets(outputs), nil
}

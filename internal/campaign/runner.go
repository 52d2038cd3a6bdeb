package campaign

import (
	"fmt"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
)

// profileConfigs maps an architecture short name to the cluster
// configurations a campaign uses on it: the single-node deployment proxy
// evaluations run on (the paper pins each proxy benchmark to one slave
// node) and the three-node deployment trace steps accumulate state on.
func profileConfigs(name string) (eval, trace sim.ClusterConfig, err error) {
	switch name {
	case "westmere":
		return sim.SingleNode(sim.ThreeNodeWestmere64GB().Profile, 0), sim.ThreeNodeWestmere64GB(), nil
	case "haswell":
		return sim.SingleNode(sim.ThreeNodeHaswell64GB().Profile, 0), sim.ThreeNodeHaswell64GB(), nil
	default:
		return sim.ClusterConfig{}, sim.ClusterConfig{}, fmt.Errorf("campaign: unknown architecture profile %q", name)
	}
}

// benchmarkFor resolves a workload short name to its proxy benchmark.
func benchmarkFor(workload string) (*core.Benchmark, error) {
	return proxy.ForWorkload(workload)
}

// Test hooks for the negative harness tests: mutateMetrics corrupts every
// fresh eval metric vector before the invariant gate sees it (a seeded
// invariant violation must fail the campaign), and recordUnordered
// assembles eval records by ranging over a map (an injected map-order
// nondeterminism VerifyDeterminism must catch).  Both are nil/false in
// production.
var (
	mutateMetrics   func(*perf.Metrics)
	recordUnordered bool
)

// Runner executes one campaign instance step by step.  It is not safe for
// concurrent use; multi-seed fan-out gives every seed its own Runner
// (RunSeeds).
type Runner struct {
	cfg  Config
	inst Instance

	// memo is the campaign-wide measurement cache; keys embed benchmark
	// and cluster fingerprint, so one memo serves every (workload,
	// profile) pair.
	memo *tuner.Memo
	// pools recycles evaluation clusters per profile.
	pools map[string]*sim.ClusterPool
	// traces are the persistent per-profile trace clusters; their state
	// accumulates across trace steps (the monotonicity invariant) and is
	// what a mid-campaign export checkpoints.
	traces map[string]*sim.Cluster

	// seen tracks every memo key measured so far, for the bookkeeping
	// exactness gate.  Only len() and indexed lookups — never ranged.
	seen map[string]bool
	// lastCounters/lastElapsed remember each trace cluster's previous
	// cumulative per-node counters and clock for the monotonicity gate.
	lastCounters map[string][]perf.Counters
	lastElapsed  map[string]float64

	evaluations int
	cacheHits   int

	steps []StepRecord
	next  int
}

// NewRunner generates the instance for cfg and prepares a runner at step
// zero.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:          cfg,
		inst:         GenerateInstance(cfg),
		memo:         tuner.NewMemo(),
		pools:        make(map[string]*sim.ClusterPool),
		traces:       make(map[string]*sim.Cluster),
		seen:         make(map[string]bool),
		lastCounters: make(map[string][]perf.Counters),
		lastElapsed:  make(map[string]float64),
	}
	for _, p := range cfg.Profiles {
		evalCfg, traceCfg, err := profileConfigs(p)
		if err != nil {
			return nil, err
		}
		proto, err := sim.NewCluster(evalCfg)
		if err != nil {
			return nil, err
		}
		r.pools[p] = sim.NewClusterPool(proto)
		if r.traces[p], err = sim.NewCluster(traceCfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Config returns the runner's effective (default-filled) config.
func (r *Runner) Config() Config { return r.cfg }

// Instance returns the generated campaign instance.
func (r *Runner) Instance() Instance { return r.inst }

// Done reports whether every step has executed.
func (r *Runner) Done() bool { return r.next >= len(r.inst.Steps) }

// NextStep returns the index of the next step to execute.
func (r *Runner) NextStep() int { return r.next }

// Step executes the next campaign step, gates it through the model
// invariants, and records it.  It is a no-op returning nil once the
// campaign is done.
func (r *Runner) Step() error {
	if r.Done() {
		return nil
	}
	step := r.inst.Steps[r.next]
	var rec StepRecord
	var err error
	switch step.Kind {
	case StepEval:
		rec, err = r.runEval(r.next, step)
	case StepTrace:
		rec, err = r.runTrace(r.next, step)
	default:
		err = fmt.Errorf("campaign: step %d has unknown kind %q", r.next, step.Kind)
	}
	if err != nil {
		return fmt.Errorf("campaign seed %d step %d (%s): %w", r.inst.Seed, r.next, step.Kind, err)
	}
	r.steps = append(r.steps, rec)
	r.next++
	return nil
}

// Run executes every remaining step and returns the final report.
func (r *Runner) Run() (*Report, error) {
	for !r.Done() {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Report(), nil
}

// runEval evaluates one eval step's settings through the shared memo and
// gates the results.
func (r *Runner) runEval(idx int, step Step) (StepRecord, error) {
	b, err := benchmarkFor(step.Workload)
	if err != nil {
		return StepRecord{}, err
	}
	pool := r.pools[step.Profile]
	ev := tuner.NewEvaluator(pool, b, r.memo)
	metrics, fresh, err := ev.Evaluate(step.Settings)
	if err != nil {
		return StepRecord{}, err
	}
	if mutateMetrics != nil {
		for i := range metrics {
			mutateMetrics(&metrics[i])
		}
	}

	// Invariant gate: metric sanity plus memo bookkeeping exactness.
	for i, m := range metrics {
		if err := m.Validate(); err != nil {
			return StepRecord{}, fmt.Errorf("setting %d (%s): %w", i, step.Settings[i].Canonical(), err)
		}
	}
	for i, s := range step.Settings {
		key := tuner.MemoKey(pool.Proto(), b, s)
		if wantFresh := !r.seen[key]; fresh[i] != wantFresh {
			return StepRecord{}, fmt.Errorf("memo bookkeeping: setting %d fresh=%v, want %v", i, fresh[i], wantFresh)
		}
		r.seen[key] = true
		if fresh[i] {
			r.evaluations++
		} else {
			r.cacheHits++
		}
	}
	if r.memo.Size() != len(r.seen) {
		return StepRecord{}, fmt.Errorf("memo bookkeeping: memo holds %d entries, campaign measured %d distinct keys", r.memo.Size(), len(r.seen))
	}

	rec := StepRecord{
		Index:    idx,
		Kind:     StepEval,
		Profile:  step.Profile,
		Workload: step.Workload,
		MemoSize: r.memo.Size(),
	}
	if recordUnordered {
		// Injected nondeterminism (test hook): assemble the record by
		// ranging over a map, leaking Go's randomized iteration order
		// into the report bytes.  The determinism harness must catch it.
		byCanon := make(map[string]int, len(step.Settings))
		for i, s := range step.Settings {
			byCanon[fmt.Sprintf("%d|%s", i, s.Canonical())] = i
		}
		for _, i := range byCanon {
			rec.Settings = append(rec.Settings, step.Settings[i].Canonical())
			rec.Metrics = append(rec.Metrics, metrics[i])
			rec.Fresh = append(rec.Fresh, fresh[i])
		}
		return rec, nil
	}
	for i, s := range step.Settings {
		rec.Settings = append(rec.Settings, s.Canonical())
		rec.Metrics = append(rec.Metrics, metrics[i])
		rec.Fresh = append(rec.Fresh, fresh[i])
	}
	return rec, nil
}

// runTrace drives one trace step on the profile's persistent cluster and
// gates the cumulative report.
func (r *Runner) runTrace(idx int, step Step) (StepRecord, error) {
	c := r.traces[step.Profile]
	seed := step.TraceSeed
	ops := step.Ops
	c.RunTasks(fmt.Sprintf("trace-%03d", idx), step.Tasks, 1.25, func(i int, ex *sim.Exec) {
		driveTrace(ex, seed+uint64(i), ops)
	})
	rep := c.Report(fmt.Sprintf("campaign-%d", r.inst.Seed))

	// Invariant gate: conservation, clamp bounds, monotonicity.
	if err := perf.CheckReport(rep.Aggregate, rep.Metrics); err != nil {
		return StepRecord{}, err
	}
	nodes := c.Nodes()
	prev := r.lastCounters[step.Profile]
	cur := make([]perf.Counters, len(nodes))
	for i, n := range nodes {
		cur[i] = n.Counters()
		if err := cur[i].Validate(); err != nil {
			return StepRecord{}, fmt.Errorf("node %d: %w", i, err)
		}
		if prev != nil && !cur[i].Covers(prev[i]) {
			return StepRecord{}, fmt.Errorf("node %d: cumulative counters shrank across stages", i)
		}
	}
	if c.Elapsed() < r.lastElapsed[step.Profile] {
		return StepRecord{}, fmt.Errorf("cluster clock ran backwards: %g < %g", c.Elapsed(), r.lastElapsed[step.Profile])
	}
	r.lastCounters[step.Profile] = cur
	r.lastElapsed[step.Profile] = c.Elapsed()

	agg := rep.Aggregate
	m := rep.Metrics
	return StepRecord{
		Index:        idx,
		Kind:         StepTrace,
		Profile:      step.Profile,
		Elapsed:      c.Elapsed(),
		Aggregate:    &agg,
		PerNode:      rep.PerNode,
		TraceMetrics: &m,
	}, nil
}

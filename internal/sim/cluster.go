package sim

import (
	"fmt"

	"dataproxy/internal/arch"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
)

// Task is one unit of work of a stage.  Its extrapolation factor is the
// stage's: Cluster.RunStage takes one, Batch.RunStage one per lane.
type Task struct {
	// Fn performs the work, reporting it to the Exec.
	Fn func(ex *Exec)
	// Node pins the task to a specific node index; -1 distributes tasks
	// round-robin across the worker nodes.
	Node int
}

// StageResult summarises one cluster execution stage.
type StageResult struct {
	Name           string
	Seconds        float64
	Tasks          int
	PerNodeSeconds map[int]float64
}

// Cluster is a simulated deployment of Nodes sharing a virtual clock.
type Cluster struct {
	cfg         ClusterConfig
	fingerprint string
	nodes       []*Node
	// own is the cluster's one accounting lane: the clock, stage records
	// and node accounts RunStage, AdvanceTime, Report and the state export
	// use.  It is an array so RunStage hands the stage executor a one-lane
	// slice without allocating; a Batch accounts into lanes of its own.
	own [1]ledger
}

// ledger is one accounting lane of a run: its virtual clock, its stage
// records and, per node id, what that node's tasks accumulated under the
// lane's extrapolation factors.  A Cluster keeps one; a Batch keeps one per
// lane.
type ledger struct {
	elapsed float64
	stages  []StageResult
	nodes   []nodeAccount
}

// nodeAccount is one node's entry of a ledger.
type nodeAccount struct {
	counters perf.Counters

	// Virtual time accumulated on the node, split by resource.
	cpuSeconds  float64
	diskSeconds float64
	netSeconds  float64
}

// NewCluster builds a cluster from its configuration.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, fingerprint: fmt.Sprintf("%+v", cfg)}
	c.own[0].nodes = make([]nodeAccount, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		m, err := arch.NewMachine(cfg.Profile)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{id: i, cluster: c, machine: m})
	}
	return c, nil
}

// MustNewCluster is like NewCluster but panics on configuration errors; it
// is intended for the stock configurations.
func MustNewCluster(cfg ClusterConfig) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	return c
}

// Config returns the cluster configuration (with defaults filled in).
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// Fingerprint returns the deterministic string form of the cluster's full
// configuration, computed once at construction.  It is what the measurement
// memo keys embed: the configuration is immutable after NewCluster, so
// callers on the serving hot path can append the cached string instead of
// re-formatting the whole config per request.
func (c *Cluster) Fingerprint() string { return c.fingerprint }

// Clone returns an independent cluster with the same configuration in its
// reset state (fresh nodes, zero elapsed time, no recorded stages).  Because
// every measurement entry point resets its cluster first, running the same
// deterministic workload on a clone produces bit-identical reports to running
// it on the original — which is what lets the auto-tuner fan independent
// evaluations out over the worker pool, one clone per in-flight evaluation,
// without sharing any per-node cache or allocator state.
func (c *Cluster) Clone() *Cluster {
	clone, err := NewCluster(c.cfg)
	if err != nil {
		// c.cfg was validated when c itself was built, so this is unreachable
		// short of memory corruption.
		panic(fmt.Sprintf("sim: cloning validated cluster: %v", err))
	}
	return clone
}

// Nodes returns all nodes, master first.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Master returns the master node, or the single node of a one-node cluster.
func (c *Cluster) Master() *Node { return c.nodes[0] }

// Workers returns the worker (slave) nodes.
func (c *Cluster) Workers() []*Node {
	return c.nodes[c.cfg.MasterNodes:]
}

// Elapsed returns the virtual time in seconds accumulated so far.
func (c *Cluster) Elapsed() float64 { return c.own[0].elapsed }

// Stages returns the per-stage results recorded so far.
func (c *Cluster) Stages() []StageResult { return c.own[0].stages }

// AdvanceTime adds fixed virtual time (framework startup, coordination
// barriers, heartbeat intervals) to the cluster clock.
func (c *Cluster) AdvanceTime(name string, seconds float64) {
	if seconds <= 0 {
		return
	}
	l := &c.own[0]
	l.elapsed += seconds
	l.stages = append(l.stages, StageResult{Name: name, Seconds: seconds})
}

// Reset restores the cluster to its construction state: zero elapsed time,
// reset nodes (counters cleared, address allocators rewound, cache slabs
// zeroed, branch predictors and LRU clocks back to their initial values) and
// no recorded stages.  A reset cluster behaves bit-identically to a fresh
// Clone — the ClusterPool property tests enforce this — while keeping every
// allocation (cache line slabs, predictor tables, node structs) alive for
// reuse; only the stage-result slice is truncated in place.
func (c *Cluster) Reset() {
	c.own[0].elapsed = 0
	c.own[0].stages = c.own[0].stages[:0]
	for _, n := range c.nodes {
		n.Reset()
	}
}

// RunStage executes the tasks, distributing unpinned tasks round-robin
// across the worker nodes, and advances the cluster clock by the stage's
// virtual duration (the slowest node's time, with CPU and I/O partially
// overlapped).  Tasks execute deterministically; concurrency is modelled in
// virtual time, while in host time independent nodes' task groups run
// concurrently on the parallel engine.  It is the one-lane case of the
// stage executor Batch.RunStage also runs on.
//
// scale extrapolates every task's counters and I/O time, used when the
// tasks process only a sample of the stage's configured data; a factor
// that is not positive (zero, negative or NaN) means 1 (no extrapolation).
// parallelismPerNode is the per-node parallelism of the virtual-time
// composition.  It matters when the executed tasks are a scaled-up sample
// of a larger real task population (e.g. eight sampled map tasks standing
// in for eight hundred): the counters extrapolate through scale, while
// parallelismPerNode describes how many real tasks would have run
// concurrently on each node.  Zero derives the parallelism from the number
// of sampled tasks per node, which is the right default when tasks are not
// scaled.
func (c *Cluster) RunStage(stage string, tasks []Task, parallelismPerNode int, scale float64) StageResult {
	c.runStage(stage, tasks, parallelismPerNode, []float64{scale}, c.own[:])
	l := &c.own[0]
	return l.stages[len(l.stages)-1]
}

// runStage is the one stage executor, behind Cluster.RunStage and
// Batch.RunStage, in two halves.  It first executes the stage: it groups the
// tasks by the node they resolve to, in first-appearance order, and runs
// each node's tasks in order.  One node's Execs share its cache hierarchy,
// address allocator and core slots, so they run sequentially on one host
// goroutine; independent nodes run concurrently on the parallel engine.
// Every node sees exactly the task sequence it would see under fully
// sequential execution, so stage results are independent of the host
// worker count.  Each task runs and finishes once, unscaled, and its totals
// go into the returned stage trace.  It then accounts that trace into every
// lane at the lane's entry of scales (account).
func (c *Cluster) runStage(stage string, tasks []Task, parallelismPerNode int, scales []float64, lanes []ledger) StageTrace {
	workers := c.Workers()
	if len(workers) == 0 {
		workers = c.nodes
	}
	tr := StageTrace{name: stage, tasks: len(tasks)}
	byNode := make(map[int]int)
	for i, t := range tasks {
		node := c.nodeForTask(t.Node, i, workers)
		gi, ok := byNode[node.id]
		if !ok {
			gi = len(tr.nodes)
			byNode[node.id] = gi
			tr.nodes = append(tr.nodes, nodeTrace{node: node.id})
		}
		tr.nodes[gi].tasks = append(tr.nodes[gi].tasks, taskTrace{index: i})
	}

	parallel.For(len(tr.nodes), 1, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			nt := &tr.nodes[gi]
			node := c.nodes[nt.node]
			for ti := range nt.tasks {
				tt := &nt.tasks[ti]
				ex := newExec(node, node.execSeq)
				node.execSeq++
				if fn := tasks[tt.index].Fn; fn != nil {
					fn(ex)
				}
				ex.finish()
				tt.counters, tt.diskSeconds, tt.netSeconds = ex.counters, ex.diskSeconds, ex.netSeconds
			}
		}
	})

	c.account(tr, parallelismPerNode, scales, lanes)
	return tr
}

// account is the one stage accounting function: it accounts an executed
// stage trace into every lane, every task under that lane's factor
// (laneScale over scales) and the stage at parallelismPerNode (RunStage's
// rule), whether the stage just ran or the trace was recorded earlier
// (Batch.Account).  Counters scale through
// perf.Counters.ScaledBy and I/O seconds are multiplied only when the
// factor is not 1, so an unscaled lane never rounds through a float.  A
// node's counters and I/O seconds grow task by task, in task order, and its
// CPU seconds once per stage; the stage's virtual duration (slots, CPU
// seconds, I/O overlap) is composed once per lane.  It reads only the
// cluster's configuration, so it may run on a shared prototype.
func (c *Cluster) account(tr StageTrace, parallelismPerNode int, scales []float64, lanes []ledger) {
	p := c.cfg.Profile
	for lane := range lanes {
		l := &lanes[lane]
		s := laneScale(scales, lane)
		res := StageResult{Name: tr.name, Tasks: tr.tasks, PerNodeSeconds: make(map[int]float64)}
		for _, nt := range tr.nodes {
			acct := &l.nodes[nt.node]
			var cycles uint64
			var diskSec, netSec float64
			for _, tt := range nt.tasks {
				cnt := tt.counters.ScaledBy(s)
				disk, net := tt.diskSeconds, tt.netSeconds
				if s != 1 {
					disk *= s
					net *= s
				}
				acct.counters.Add(cnt)
				acct.diskSeconds += disk
				acct.netSeconds += net
				cycles += cnt.Cycles
				diskSec += disk
				netSec += net
			}
			slots := len(nt.tasks)
			if parallelismPerNode > 0 {
				slots = parallelismPerNode
			}
			if cores := p.TotalCores(); slots > cores {
				slots = cores
			}
			if slots < 1 {
				slots = 1
			}
			cpuSec := float64(cycles) / p.FrequencyHz / float64(slots)
			nodeSec := composeTime(cpuSec, diskSec+netSec, c.cfg.IOOverlapFactor)
			res.PerNodeSeconds[nt.node] = nodeSec
			if nodeSec > res.Seconds {
				res.Seconds = nodeSec
			}
			acct.cpuSeconds += cpuSec
		}
		l.elapsed += res.Seconds
		l.stages = append(l.stages, res)
	}
}

// nodeForTask resolves the node the i-th task of a stage runs on: the node
// it is pinned to, or the next worker round-robin.
func (c *Cluster) nodeForTask(pin, i int, workers []*Node) *Node {
	if pin >= 0 && pin < len(c.nodes) {
		return c.nodes[pin]
	}
	return workers[i%len(workers)]
}

// composeTime combines CPU and I/O time with partial overlap.
func composeTime(cpu, io, overlap float64) float64 {
	hi, lo := cpu, io
	if io > cpu {
		hi, lo = io, cpu
	}
	return hi + (1-overlap)*lo
}

// RunTasks is a convenience wrapper that builds n unpinned tasks invoking fn
// with the task index and runs them as one stage at the given factor.
func (c *Cluster) RunTasks(stage string, n int, scale float64, fn func(i int, ex *Exec)) StageResult {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Node: -1, Fn: func(ex *Exec) { fn(i, ex) }}
	}
	return c.RunStage(stage, tasks, 0, scale)
}

// RunOnNode runs a single task pinned to the given node as its own stage.
func (c *Cluster) RunOnNode(stage string, node int, scale float64, fn func(ex *Exec)) StageResult {
	return c.RunStage(stage, []Task{{Node: node, Fn: fn}}, 0, scale)
}

// Report summarises the execution observed so far: total virtual runtime,
// aggregate counters over the worker nodes, and the metric vector derived
// from the average worker-node counters (the paper reports the average value
// across all slave nodes).
type Report struct {
	Name        string
	ClusterName string
	Runtime     float64
	Aggregate   perf.Counters
	PerNode     []perf.Counters
	Metrics     perf.Metrics
	Stages      []StageResult
}

// Report builds the execution report of the cluster's own stages under
// the given name.
func (c *Cluster) Report(name string) Report { return c.report(name, &c.own[0]) }

// report is the one report builder, for the cluster's own ledger and for
// every lane of a Batch.
func (c *Cluster) report(name string, l *ledger) Report {
	rep := Report{
		Name:        name,
		ClusterName: c.cfg.Name,
		Runtime:     l.elapsed,
		Stages:      append([]StageResult(nil), l.stages...),
	}
	active := 0
	for _, n := range c.Workers() {
		cnt := l.nodes[n.id].counters
		rep.PerNode = append(rep.PerNode, cnt)
		rep.Aggregate.Add(cnt)
		if !cnt.IsZero() {
			active++
		}
	}
	if active == 0 {
		active = 1
	}
	avg := rep.Aggregate
	avg.Scale(1 / float64(active))
	rep.Metrics = perf.FromCounters(avg, rep.Runtime)
	return rep
}

// Speedup returns how many times faster the proxy execution is than the real
// one (Equation 4 of the paper generalised to any two runtimes).
func Speedup(realSeconds, proxySeconds float64) float64 {
	if proxySeconds <= 0 {
		return 0
	}
	return realSeconds / proxySeconds
}

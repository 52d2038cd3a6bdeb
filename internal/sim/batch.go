package sim

import "dataproxy/internal/perf"

// BatchTask is one unit of work of a lockstep batch stage: the task's trace
// is executed once and accounted into every lane of the batch under that
// lane's extrapolation factor.
type BatchTask struct {
	// Fn performs the work, reporting it to the shared Exec.
	Fn func(ex *Exec)
	// Node pins the task to a specific node index; -1 distributes tasks
	// round-robin across the worker nodes, like Task.Node.
	Node int
	// Scales holds one extrapolation factor per lane.  A nil slice, a
	// missing entry or an entry that is not positive means 1, Task.Scale's
	// rule per lane.
	Scales []float64
}

// laneScale resolves the effective extrapolation factor of one lane: the
// lane's entry when it is positive, otherwise 1.
func laneScale(scales []float64, lane int) float64 {
	if lane >= len(scales) {
		return 1
	}
	if s := scales[lane]; s > 0 {
		return s
	}
	return 1
}

// StageTrace is one executed stage as the stage executor recorded it: per
// node, in first-appearance order, each task's unscaled counters and disk
// and network seconds.  Batch.RunStage returns it, and Batch.Account
// accounts it into the lanes of another batch exactly as the run accounted
// it, without executing anything.  The per-node parallelism is not part of
// the trace: it only composes virtual time, so each accounting names its
// own.
type StageTrace struct {
	name  string
	tasks int
	nodes []nodeTrace
}

// nodeTrace is one node's tasks of a stage trace, in task order.
type nodeTrace struct {
	node  int
	tasks []taskTrace
}

// taskTrace is one finished task of a stage trace; index is its position
// in the stage's task list, which the lane factors are looked up by.
type taskTrace struct {
	index       int
	counters    perf.Counters
	diskSeconds float64
	netSeconds  float64
}

// Batch executes stages on a cluster once while accounting K settings in
// lockstep, one ledger per lane.  The cluster's nodes supply the cache
// hierarchy, address allocator and core slots, exactly the state a one-lane
// run drives, while counters, virtual time and stage records go to the
// batch's lanes; the cluster's own clock and counters stay at their reset
// state, and lane reports come from Reports.
//
// Bit-identity contract: Cluster.RunStage, Batch.RunStage and Batch.Account
// share one stage accounting function and Cluster.Report and Reports one
// report builder, so lane i of a batch is bit-identical to a one-lane run
// of the same tasks at lane i's factors, whether its stages ran in this
// batch or were recorded by another.
type Batch struct {
	c     *Cluster
	lanes []ledger
}

// NewBatch prepares a K-lane batch on the cluster and resets the cluster so
// the shared trace starts from its construction state.
func NewBatch(c *Cluster, k int) *Batch {
	c.Reset()
	return NewReplay(c, k)
}

// NewReplay prepares a K-lane batch on the cluster without resetting it.
// Account reads only the cluster's configuration, node ids and Workers, so
// on a pool's shared prototype the batch may only Account.  On a cluster
// the caller owns, for instance one that ImportState just loaded, it may
// also RunStage, which continues from the cluster's state.
func NewReplay(c *Cluster, k int) *Batch {
	if k < 1 {
		k = 1
	}
	bt := &Batch{c: c, lanes: make([]ledger, k)}
	for i := range bt.lanes {
		bt.lanes[i].nodes = make([]nodeAccount, len(c.nodes))
	}
	return bt
}

// RunStage executes the tasks once, accounts the stage into every lane,
// each at its own factors, and returns the stage trace; Cluster.RunStage
// documents the scheduling and the virtual-time composition.
func (bt *Batch) RunStage(stage string, tasks []BatchTask, parallelismPerNode int) StageTrace {
	return bt.c.runStage(stage, tasks, parallelismPerNode, bt.lanes)
}

// RunOnNode runs a single task pinned to the given node as its own stage,
// with one extrapolation factor per lane, and returns the stage trace.
func (bt *Batch) RunOnNode(stage string, node int, scales []float64, fn func(ex *Exec)) StageTrace {
	return bt.RunStage(stage, []BatchTask{{Node: node, Scales: scales, Fn: fn}}, 0)
}

// Account accounts a recorded stage trace into every lane, every task of
// it at the lane's entry of scales (BatchTask.Scales' rule) and the stage
// at the given per-node parallelism (Cluster.RunStage's rule), as if the
// stage had run in this batch with those factors.
func (bt *Batch) Account(tr StageTrace, parallelismPerNode int, scales []float64) {
	bt.c.account(tr, parallelismPerNode, func(int) []float64 { return scales }, bt.lanes)
}

// Reports builds one report per lane under the given name.
func (bt *Batch) Reports(name string) []Report {
	out := make([]Report, len(bt.lanes))
	for i := range bt.lanes {
		out[i] = bt.c.report(name, &bt.lanes[i])
	}
	return out
}

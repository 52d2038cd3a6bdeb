package sim

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

// Batch executes stages on a cluster once while accounting K settings in
// lockstep, one ledger per lane.  The cluster's nodes supply the cache
// hierarchy, address allocator and core slots, exactly the state a one-lane
// run drives, while counters, virtual time and stage records go to the
// batch's lanes; the cluster's own clock and counters stay at their reset
// state, and lane reports come from Reports.
//
// Bit-identity contract: Cluster.RunStage and Batch.RunStage run on one
// stage executor and Cluster.Report and Reports on one report builder, so
// lane i of a batch is bit-identical to a one-lane run of the same tasks at
// lane i's factors.
type Batch struct {
	c     *Cluster
	lanes []ledger
}

// NewBatch prepares a K-lane batch on the cluster and resets the cluster so
// the shared trace starts from its construction state.
func NewBatch(c *Cluster, k int) *Batch {
	if k < 1 {
		k = 1
	}
	c.Reset()
	bt := &Batch{c: c, lanes: make([]ledger, k)}
	for i := range bt.lanes {
		bt.lanes[i].nodes = make([]nodeAccount, len(c.nodes))
	}
	return bt
}

// RunStage executes the tasks once and accounts the stage into every lane,
// each at its own factors; Cluster.RunStage documents the scheduling and
// the virtual-time composition.
func (bt *Batch) RunStage(stage string, tasks []BatchTask, parallelismPerNode int) {
	bt.c.runStage(stage, tasks, parallelismPerNode, bt.lanes)
}

// RunOnNode runs a single task pinned to the given node as its own stage,
// with one extrapolation factor per lane.
func (bt *Batch) RunOnNode(stage string, node int, scales []float64, fn func(ex *Exec)) {
	bt.RunStage(stage, []BatchTask{{Node: node, Scales: scales, Fn: fn}}, 0)
}

// Reports builds one report per lane under the given name.
func (bt *Batch) Reports(name string) []Report {
	out := make([]Report, len(bt.lanes))
	for i := range bt.lanes {
		out[i] = bt.c.report(name, &bt.lanes[i])
	}
	return out
}

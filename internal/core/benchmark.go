package core

import (
	"fmt"

	"dataproxy/internal/motif"
)

// Edge is one data motif invocation in the proxy benchmark DAG: it consumes
// the data set at node From, runs the named motif implementation on it with
// the given weight, and produces the data set at node To.
type Edge struct {
	// Name identifies the edge in stage results (defaults to Impl).
	Name string
	// Impl is the motif implementation name in the shared registry
	// (e.g. "quicksort", "convolution").
	Impl string
	// From and To name the data set nodes this edge connects.  The source
	// data set of the whole benchmark is named "input".
	From string
	To   string
	// Weight is the contribution of this motif to the proxy benchmark,
	// initialised from the execution ratio of the corresponding hotspot in
	// the real workload (e.g. 0.70 for sort in Hadoop TeraSort).
	Weight float64
}

// InputNode is the name of the DAG's source data set.
const InputNode = "input"

// Benchmark is a data motif-based proxy benchmark: a DAG of motif edges over
// data set nodes, plus the base parameter vector initialised from the real
// workload's configuration (scaled down, as Section II-B.2 describes).
type Benchmark struct {
	// Name of the proxy benchmark, e.g. "Proxy TeraSort".
	Name string
	// Workload is the short name of the real workload this proxy mimics.
	Workload string
	// Base is the base parameter vector; the tuner's Setting multiplies it.
	Base Params
	// SampleBytes bounds how much real data is generated and processed
	// in-process; the remaining configured DataSize is extrapolated.
	SampleBytes uint64
	// Input generates the (sampled) source data set with the data type and
	// distribution of the original workload's input, from the generation
	// seed, the sample volume in bytes and the effective batch size.  It
	// sees no other parameter: dataSize and weight enter the simulation
	// only as extrapolation factors, chunkSize only through runChunked and
	// numTasks only through splitDataset, which is what lets RunBatch share
	// one generated input, and a TraceStore one trace, among settings that
	// differ in them.
	Input func(seed int64, sampleBytes uint64, batchSize int) *motif.Dataset
	// Edges is the DAG.
	Edges []Edge
	// SpillIntermediate makes every motif edge write its intermediate data
	// set to local disk, mirroring the big data motif implementations'
	// "intermediate data written to disk" behaviour (Section II-A).  The AI
	// proxies leave it off: the paper observes near-zero disk traffic for
	// the AI workloads.
	SpillIntermediate bool
}

// Validate checks the benchmark structure: known motif implementations,
// positive weights, a connected DAG rooted at the input node and no cycles.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("core: benchmark has no name")
	}
	if b.Input == nil {
		return fmt.Errorf("core: benchmark %s has no input generator", b.Name)
	}
	if len(b.Edges) == 0 {
		return fmt.Errorf("core: benchmark %s has no edges", b.Name)
	}
	if err := b.Base.Validate(); err != nil {
		return fmt.Errorf("core: benchmark %s: %w", b.Name, err)
	}
	if _, err := b.sortedEdges(); err != nil {
		return err
	}
	for _, e := range b.Edges {
		if _, err := motif.Lookup(e.Impl); err != nil {
			return fmt.Errorf("core: benchmark %s edge %s: %w", b.Name, e.Name, err)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("core: benchmark %s edge %s has non-positive weight %g", b.Name, e.Name, e.Weight)
		}
		if e.From == "" || e.To == "" {
			return fmt.Errorf("core: benchmark %s edge %s is missing endpoints", b.Name, e.Name)
		}
	}
	return nil
}

// TotalWeight returns the sum of edge weights.
func (b *Benchmark) TotalWeight() float64 {
	var w float64
	for _, e := range b.Edges {
		w += e.Weight
	}
	return w
}

// Motifs returns the distinct motif implementation names used by the DAG, in
// execution order.
func (b *Benchmark) Motifs() []string {
	seen := map[string]bool{}
	var names []string
	edges, err := b.sortedEdges()
	if err != nil {
		edges = b.Edges
	}
	for _, e := range edges {
		if !seen[e.Impl] {
			seen[e.Impl] = true
			names = append(names, e.Impl)
		}
	}
	return names
}

// sortedEdges returns the edges in a valid topological execution order: an
// edge can run only after the data set it consumes has been produced (the
// benchmark input is available from the start).  It reports cycles and edges
// whose source data set is never produced.
func (b *Benchmark) sortedEdges() ([]Edge, error) {
	produced := map[string]bool{InputNode: true}
	remaining := append([]Edge(nil), b.Edges...)
	var order []Edge
	for len(remaining) > 0 {
		progressed := false
		var next []Edge
		for _, e := range remaining {
			if produced[e.From] {
				order = append(order, e)
				produced[e.To] = true
				progressed = true
			} else {
				next = append(next, e)
			}
		}
		if !progressed {
			return nil, fmt.Errorf("core: benchmark %s has a cycle or an unreachable data set (e.g. edge %q from %q)",
				b.Name, remaining[0].Name, remaining[0].From)
		}
		remaining = next
	}
	return order, nil
}

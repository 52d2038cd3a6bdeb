// Package sim provides the virtual-time simulation engine the rest of the
// repository executes against.  It plays the role of the physical clusters
// in the paper's evaluation: a Cluster of Nodes, each modelled by an
// arch.Machine, executes Tasks that report their work (instructions, memory
// accesses, branches, disk and network I/O) to an Exec.  The engine drives
// the cache and branch-predictor models with a sampled event stream, turns
// the resulting counter values into virtual execution time, and aggregates
// per-node performance counters into the metric vector of package perf.
//
// All execution times produced by this package are virtual (simulated)
// seconds, not host wall-clock time.
package sim

import (
	"fmt"

	"dataproxy/internal/arch"
)

// ClusterConfig describes a simulated cluster deployment.  The stock
// configurations mirror the deployments used in the paper: a five-node
// Westmere cluster with 32 GB per node for the main evaluation (Section
// III-B), a three-node 64 GB configuration for the configuration
// adaptability case study (Section IV-B), and the same three-node cluster
// with Haswell processors for the cross-architecture study (Section IV-C).
type ClusterConfig struct {
	Name string

	// Nodes is the total number of nodes including the master.
	Nodes int
	// MasterNodes is the number of nodes reserved for coordination (the
	// Hadoop master or the TensorFlow parameter server).  Worker tasks are
	// scheduled on the remaining nodes.
	MasterNodes int
	// MemoryPerNodeBytes is the RAM capacity of each node.
	MemoryPerNodeBytes uint64
	// Profile is the processor/node profile of every node.
	Profile arch.Profile

	// EventSampleRate controls the 1-in-K sampling of memory accesses and
	// branches pushed through the micro-architecture models; counter values
	// are extrapolated from the sampled observations.  Higher values run
	// faster but are noisier.  Zero selects the default.
	EventSampleRate int

	// MaxModelOpsPerCall caps the number of cache *lines* probed through the
	// hierarchy for one bulk Load/Store call.  The engine simulates runs at
	// line granularity (arch.Cache.AccessLine): a capped call spreads its
	// modelled lines evenly across the run and the remainder of the call is
	// extrapolated when the task finishes.  Intra-line word accesses are
	// never probed — they are L1 hits by construction and are accounted
	// arithmetically — so one unit of this budget covers a full line's
	// worth of words.  Zero selects the default.
	MaxModelOpsPerCall int

	// MaxModelFetchesPerCall caps the number of instruction fetches (line
	// probes of the L1I hierarchy) pushed through the model for one bulk
	// Int/Float/Load/Store call, mirroring MaxModelOpsPerCall on the
	// instruction side: a bulk-counted block of instructions (e.g. the
	// parameter server streaming millions of gradient updates) is sampled up
	// to this cap and the rest is extrapolated when the task finishes.  Zero
	// selects the default.
	MaxModelFetchesPerCall int

	// IOOverlapFactor in [0,1] controls how much of the smaller of CPU time
	// and I/O time overlaps with the larger when composing a stage's
	// duration (1 = perfect overlap, 0 = fully serialised).
	IOOverlapFactor float64
}

const (
	defaultEventSampleRate        = 4
	defaultMaxModelOpsPerCall     = 512
	defaultMaxModelFetchesPerCall = 64
	defaultIOOverlap              = 0.7

	// GiB is one gibibyte in bytes.
	GiB = uint64(1024 * 1024 * 1024)
)

// Validate reports configuration errors.
func (c ClusterConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: cluster %q has %d nodes", c.Name, c.Nodes)
	}
	if c.MasterNodes < 0 || c.MasterNodes >= c.Nodes {
		return fmt.Errorf("sim: cluster %q has %d master nodes out of %d", c.Name, c.MasterNodes, c.Nodes)
	}
	if c.MemoryPerNodeBytes == 0 {
		return fmt.Errorf("sim: cluster %q has no memory per node", c.Name)
	}
	if c.IOOverlapFactor < 0 || c.IOOverlapFactor > 1 {
		return fmt.Errorf("sim: cluster %q has IOOverlapFactor %g outside [0,1]", c.Name, c.IOOverlapFactor)
	}
	return c.Profile.Validate()
}

// withDefaults returns a copy with zero tuning knobs replaced by defaults.
func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.EventSampleRate <= 0 {
		c.EventSampleRate = defaultEventSampleRate
	}
	if c.MaxModelOpsPerCall <= 0 {
		c.MaxModelOpsPerCall = defaultMaxModelOpsPerCall
	}
	if c.MaxModelFetchesPerCall <= 0 {
		c.MaxModelFetchesPerCall = defaultMaxModelFetchesPerCall
	}
	if c.IOOverlapFactor == 0 {
		c.IOOverlapFactor = defaultIOOverlap
	}
	return c
}

// WorkerNodes returns the number of nodes available for worker tasks.
func (c ClusterConfig) WorkerNodes() int { return c.Nodes - c.MasterNodes }

// FiveNodeWestmere is the paper's main experimental deployment: one master
// and four slave nodes, each a dual-socket Xeon E5645 with 32 GB of memory,
// connected by 1 Gb Ethernet (Section III-B, Table IV).
func FiveNodeWestmere() ClusterConfig {
	return ClusterConfig{
		Name:               "five-node Xeon E5645 (Westmere), 32 GB/node",
		Nodes:              5,
		MasterNodes:        1,
		MemoryPerNodeBytes: 32 * GiB,
		Profile:            arch.Westmere(),
	}
}

// ThreeNodeWestmere64GB is the configuration-adaptability deployment of
// Section IV-B: three nodes with the same Westmere processors but 64 GB of
// memory per node.
func ThreeNodeWestmere64GB() ClusterConfig {
	return ClusterConfig{
		Name:               "three-node Xeon E5645 (Westmere), 64 GB/node",
		Nodes:              3,
		MasterNodes:        1,
		MemoryPerNodeBytes: 64 * GiB,
		Profile:            arch.Westmere(),
	}
}

// ThreeNodeHaswell64GB is the cross-architecture deployment of Section IV-C:
// three nodes with Xeon E5-2620 v3 (Haswell) processors and 64 GB per node.
func ThreeNodeHaswell64GB() ClusterConfig {
	return ClusterConfig{
		Name:               "three-node Xeon E5-2620 v3 (Haswell), 64 GB/node",
		Nodes:              3,
		MasterNodes:        1,
		MemoryPerNodeBytes: 64 * GiB,
		Profile:            arch.Haswell(),
	}
}

// SingleNode returns a one-node deployment with the given profile.  Proxy
// benchmarks run on a single slave node in the paper's methodology, so this
// is the configuration used to execute them.
func SingleNode(p arch.Profile, memory uint64) ClusterConfig {
	if memory == 0 {
		memory = 32 * GiB
	}
	return ClusterConfig{
		Name:               "single node " + p.Name,
		Nodes:              1,
		MasterNodes:        0,
		MemoryPerNodeBytes: memory,
		Profile:            p,
	}
}

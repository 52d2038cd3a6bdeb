// Package mapreduce is the Hadoop-like substrate the "real" big data
// workloads of the paper run on.  It models the parts of the software stack
// that dominate Hadoop behaviour — HDFS-style input splits, map tasks with
// spill-to-disk output buffers, an all-to-all shuffle over the cluster
// network, merge-sorted reduce inputs, replicated output writes, JVM-style
// garbage collection and a large instruction footprint — while the map and
// reduce functions supplied by each workload perform real computation on
// sampled data that the engine extrapolates to the configured input size.
package mapreduce

import (
	"fmt"

	"dataproxy/internal/sim"
)

// Byte-size helpers.
const (
	KiB = uint64(1024)
	MiB = 1024 * KiB
	GiB = 1024 * MiB
)

// Config describes one MapReduce job the way a Hadoop job configuration
// would: data volume, reducer count, output replication and how much real
// data each sampled map task processes; the engine extrapolates counters
// and virtual time to the configured volume.  Split size, sort buffer and
// the sampled task count are fixed (splitBytes, mapOutputBufferBytes,
// sampleMapTasks), and Run derives the task slots and the heap per task
// from the cluster.
type Config struct {
	// Name identifies the job in stage results.
	Name string

	// TotalInputBytes is the configured (full) input volume, e.g. 100 GB of
	// gensort text for TeraSort.
	TotalInputBytes uint64
	// NumReduceTasks is the configured number of reducers (default: two per
	// worker node).
	NumReduceTasks int
	// ReplicationFactor is the HDFS replication of the job output (default
	// 3).
	ReplicationFactor int

	// SampleBytesPerTask is the amount of real data each sampled map task
	// processes in memory.
	SampleBytesPerTask uint64
}

const (
	// splitBytes is the HDFS block / input split size.
	splitBytes = 128 * MiB
	// mapOutputBufferBytes models mapreduce.task.io.sort.mb: map output
	// beyond this size spills to disk and is merged in extra passes.
	mapOutputBufferBytes = 256 * MiB
	// sampleMapTasks is the number of map tasks actually executed on sample
	// data (the rest are extrapolated).
	sampleMapTasks = 4
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TotalInputBytes == 0 {
		return fmt.Errorf("mapreduce: job %q has no input", c.Name)
	}
	if c.SampleBytesPerTask == 0 {
		return fmt.Errorf("mapreduce: job %q has no sampling configuration", c.Name)
	}
	return nil
}

// withDefaults fills in the Hadoop-like defaults of a cluster with the
// given number of worker nodes.
func (c Config) withDefaults(workers int) Config {
	if c.NumReduceTasks <= 0 {
		c.NumReduceTasks = 2 * workers
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	return c
}

// heapPerTask is the JVM heap per task the GC model uses.  It scales with
// the node memory, as the paper's "optimized Hadoop configurations ...
// memory allocation for each map/reduce job according to the cluster
// scales" does: half the memory per core, at least 512 MiB.
func heapPerTask(cfg sim.ClusterConfig) uint64 {
	heap := cfg.MemoryPerNodeBytes / uint64(cfg.Profile.TotalCores()) / 2
	if heap < 512*MiB {
		heap = 512 * MiB
	}
	return heap
}

// NumMapTasks returns the number of real map tasks implied by the input
// volume and split size.
func (c Config) NumMapTasks() int {
	n := int((c.TotalInputBytes + splitBytes - 1) / splitBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// hadoopCodeFootprintBytes models the instruction working set of the JVM +
// Hadoop framework stack (class library, serialisation, RPC), which the
// paper identifies as the source of the poor instruction-cache behaviour of
// big data workloads.
const hadoopCodeFootprintBytes = 6 * 1024 * 1024

// hadoopJumpsPer1k is the taken-control-transfer density of framework-heavy
// JVM code.
const hadoopJumpsPer1k = 180

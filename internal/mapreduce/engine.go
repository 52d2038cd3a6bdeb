package mapreduce

import (
	"fmt"
	"sort"

	"dataproxy/internal/sim"
)

// KV is one intermediate key/value pair.  Keys are integers (hash or
// partition identifiers); the payload is carried either as raw bytes or as a
// numeric value, whichever the workload finds natural.  Size drives the
// shuffle, spill and serialisation models.
type KV struct {
	Key   int64
	Bytes []byte
	Num   float64
}

// Size returns the serialised size of the pair in bytes.
func (kv KV) Size() uint64 { return 8 + uint64(len(kv.Bytes)) + 8 }

// Split describes the portion of the input one sampled map task processes.
type Split struct {
	// Index is the map task index (within the sampled tasks).
	Index int
	// SampleBytes is how much real data the task should generate/process.
	SampleBytes uint64
}

// MapFunc processes one input split and emits intermediate pairs.  It must
// report its computation to ex; the engine accounts the framework overhead
// (input parsing, serialisation, spills, GC) around it.
type MapFunc func(ex *sim.Exec, split Split) []KV

// ReduceFunc processes one key group and emits output pairs.
type ReduceFunc func(ex *sim.Exec, key int64, values []KV) []KV

// Job couples a configuration with the workload's map and reduce functions.
type Job struct {
	Config Config
	Map    MapFunc
	Reduce ReduceFunc
}

// Result summarises a job execution.
type Result struct {
	// MapOutputSample holds the sampled intermediate pairs (pre-shuffle).
	MapOutputSample []KV
	// Output holds the sampled reduce output pairs.
	Output []KV
	// MapOutputBytes and OutputBytes are the extrapolated full volumes.
	MapOutputBytes uint64
	OutputBytes    uint64
	// Scale is the extrapolation factor that was applied to sampled work.
	Scale float64
}

// Run executes the job on the cluster, advancing its virtual clock through
// the job setup, map, shuffle/reduce and cleanup phases.
func Run(cluster *sim.Cluster, job Job) (Result, error) {
	workers := cluster.Config().WorkerNodes()
	if workers <= 0 {
		workers = 1
	}
	cfg := job.Config.withDefaults(workers)
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if job.Map == nil {
		return Result{}, fmt.Errorf("mapreduce: job %q has no map function", cfg.Name)
	}
	cores := cluster.Config().Profile.TotalCores()
	heap := heapPerTask(cluster.Config())

	numMapTasks := cfg.NumMapTasks()
	sampleTasks := min(sampleMapTasks, numMapTasks)
	// Extrapolation factor: sampled work -> full input volume.
	sampledBytes := uint64(sampleTasks) * cfg.SampleBytesPerTask
	scale := float64(cfg.TotalInputBytes) / float64(sampledBytes)
	if scale < 1 {
		scale = 1
	}

	// --- Job setup: client submission, container/JVM startup, scheduling.
	cluster.AdvanceTime(cfg.Name+":setup", 8+0.02*float64(numMapTasks)/float64(workers))

	// --- Map phase: a node runs as many maps at once as it has cores.
	mapParallel := cores
	if perNode := (numMapTasks + workers - 1) / workers; perNode < mapParallel {
		mapParallel = perNode
	}
	var mapOutput []KV
	var mapOutSampleBytes uint64
	mapTasks := make([]sim.Task, sampleTasks)
	outputs := make([][]KV, sampleTasks)
	for i := 0; i < sampleTasks; i++ {
		i := i
		mapTasks[i] = sim.Task{Node: -1, Fn: func(ex *sim.Exec) {
			ex.SetCodeFootprint(hadoopCodeFootprintBytes, hadoopJumpsPer1k)
			// Read the split from HDFS (local read) and parse it.
			ex.ReadDisk(cfg.SampleBytesPerTask)
			frameworkPerByte(ex, cfg.SampleBytesPerTask, 2)
			kvs := job.Map(ex, Split{Index: i, SampleBytes: cfg.SampleBytesPerTask})
			outBytes := kvBytes(kvs)
			// Serialise and buffer the map output, spilling if the
			// extrapolated per-task output exceeds the sort buffer.
			frameworkPerKV(ex, kvs)
			ex.WriteDisk(outBytes)
			realTaskOut := float64(outBytes) * float64(splitBytes) / float64(cfg.SampleBytesPerTask)
			if realTaskOut > float64(mapOutputBufferBytes) {
				// Extra spill-merge pass.
				ex.ReadDisk(outBytes)
				ex.WriteDisk(outBytes)
			}
			gcPause(ex, cfg.SampleBytesPerTask+2*outBytes, heap)
			outputs[i] = kvs
		}}
	}
	// The stage carries the global extrapolation factor: together the
	// sampled tasks' scaled counters cover the whole configured input once.
	cluster.RunStage(cfg.Name+":map", mapTasks, mapParallel, scale)
	for _, kvs := range outputs {
		mapOutput = append(mapOutput, kvs...)
		mapOutSampleBytes += kvBytes(kvs)
	}

	// --- Shuffle + sort + reduce phase.
	var output []KV
	var outSampleBytes uint64
	if job.Reduce != nil && len(mapOutput) > 0 {
		groups := partition(mapOutput, cfg.NumReduceTasks)
		// A node runs half as many reduces at once as maps, at least one.
		reduceParallel := max(cores/2, 1)
		if perNode := (cfg.NumReduceTasks + workers - 1) / workers; perNode < reduceParallel {
			reduceParallel = perNode
		}
		sampleReducers := len(groups)
		reduceTasks := make([]sim.Task, 0, sampleReducers)
		reduceOutputs := make([][]KV, sampleReducers)
		idx := 0
		for _, g := range groups {
			g := g
			slot := idx
			idx++
			reduceTasks = append(reduceTasks, sim.Task{Node: -1, Fn: func(ex *sim.Exec) {
				ex.SetCodeFootprint(hadoopCodeFootprintBytes, hadoopJumpsPer1k)
				shareBytes := kvBytes(g.kvs)
				// Fetch map output from every mapper over the network, merge
				// on disk, then stream the sorted run.
				ex.NetRecv(shareBytes)
				ex.WriteDisk(shareBytes)
				ex.ReadDisk(shareBytes)
				frameworkPerKV(ex, g.kvs)
				sortKVs(ex, g.kvs)
				var out []KV
				for _, grp := range groupByKey(g.kvs) {
					out = append(out, job.Reduce(ex, grp.key, grp.vals)...)
				}
				outBytes := kvBytes(out)
				// Write the job output to HDFS with replication.
				ex.WriteDisk(outBytes)
				if cfg.ReplicationFactor > 1 {
					ex.NetSend(outBytes * uint64(cfg.ReplicationFactor-1))
				}
				gcPause(ex, 2*shareBytes+outBytes, heap)
				reduceOutputs[slot] = out
			}})
		}
		cluster.RunStage(cfg.Name+":shuffle+reduce", reduceTasks, reduceParallel, scale)
		for _, out := range reduceOutputs {
			output = append(output, out...)
			outSampleBytes += kvBytes(out)
		}
	}

	// --- Cleanup: commit, container teardown.
	cluster.AdvanceTime(cfg.Name+":cleanup", 3)

	return Result{
		MapOutputSample: mapOutput,
		Output:          output,
		MapOutputBytes:  uint64(float64(mapOutSampleBytes) * scale),
		OutputBytes:     uint64(float64(outSampleBytes) * scale),
		Scale:           scale,
	}, nil
}

func kvBytes(kvs []KV) uint64 {
	var n uint64
	for _, kv := range kvs {
		n += kv.Size()
	}
	return n
}

// frameworkPerByte charges the per-byte cost of the Hadoop I/O path
// (buffer copies, CRC checks, record readers).
func frameworkPerByte(ex *sim.Exec, bytes uint64, instrPerWord uint64) {
	words := bytes / 8
	ex.Int(words * instrPerWord)
}

// frameworkPerKV charges the per-record cost of Writable serialisation,
// object allocation and comparator invocation on the JVM.
func frameworkPerKV(ex *sim.Exec, kvs []KV) {
	for i := range kvs {
		ex.Int(60)
		ex.Branch(0xF00D, i%4 != 0)
	}
	ex.Float(uint64(len(kvs)) / 16)
}

// gcPause models JVM garbage collection triggered by the allocation volume:
// young-generation collections scan a fraction of the heap, costing integer
// work and memory traffic.
func gcPause(ex *sim.Exec, allocatedBytes, heapBytes uint64) {
	if heapBytes == 0 {
		return
	}
	collections := allocatedBytes / (heapBytes / 4)
	if collections == 0 && allocatedBytes > 0 {
		collections = 1
	}
	heapRegion := ex.Node().Alloc(heapBytes / 64)
	for g := uint64(0); g < collections; g++ {
		scan := heapBytes / 256
		ex.Load(heapRegion, 0, scan)
		ex.Store(heapRegion, scan/4, scan/8)
		ex.Int(scan / 16)
		ex.Branch(0x6CBAD, g%2 == 0)
	}
}

type keyGroup struct {
	key  int64
	vals []KV
}

type reducerShard struct {
	reducer int
	kvs     []KV
}

// partition assigns sampled pairs to reduce tasks by key hash, mirroring
// Hadoop's default HashPartitioner.
func partition(kvs []KV, reducers int) []reducerShard {
	if reducers < 1 {
		reducers = 1
	}
	shards := make(map[int][]KV)
	for _, kv := range kvs {
		r := int(uint64(kv.Key) % uint64(reducers))
		shards[r] = append(shards[r], kv)
	}
	ids := make([]int, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]reducerShard, 0, len(ids))
	for _, id := range ids {
		out = append(out, reducerShard{reducer: id, kvs: shards[id]})
	}
	return out
}

// sortKVs merge-sorts the reducer's input by key (the framework's sort
// phase), reporting comparisons and data movement.
func sortKVs(ex *sim.Exec, kvs []KV) {
	region := ex.Node().Alloc(kvBytes(kvs) + 1)
	sort.SliceStable(kvs, func(i, j int) bool {
		ex.Touch(region, uint64(i)*16, false)
		ex.Touch(region, uint64(j)*16, false)
		ex.Int(3)
		less := kvs[i].Key < kvs[j].Key
		ex.Branch(0x50FA, less)
		return less
	})
}

// groupByKey splits a key-sorted slice into contiguous key groups.
func groupByKey(kvs []KV) []keyGroup {
	var groups []keyGroup
	for i := 0; i < len(kvs); {
		j := i
		for j < len(kvs) && kvs[j].Key == kvs[i].Key {
			j++
		}
		groups = append(groups, keyGroup{key: kvs[i].Key, vals: kvs[i:j]})
		i = j
	}
	return groups
}

package mapreduce

import (
	"testing"

	"dataproxy/internal/sim"
)

// wordCountJob builds a tiny word-count style job used across the tests.
func wordCountJob(totalBytes uint64) Job {
	return Job{
		Config: Config{
			Name:               "wordcount",
			TotalInputBytes:    totalBytes,
			SampleBytesPerTask: 64 * KiB,
		},
		Map: func(ex *sim.Exec, split Split) []KV {
			// Emit (wordID, 1) pairs; the amount of work tracks the split
			// sample size.
			n := int(split.SampleBytes / 128)
			kvs := make([]KV, 0, n)
			for i := 0; i < n; i++ {
				ex.Int(20)
				kvs = append(kvs, KV{Key: int64((split.Index*31 + i) % 97), Num: 1})
			}
			return kvs
		},
		Reduce: func(ex *sim.Exec, key int64, values []KV) []KV {
			var sum float64
			for range values {
				ex.Int(2)
			}
			for _, v := range values {
				sum += v.Num
			}
			return []KV{{Key: key, Num: sum}}
		},
	}
}

func TestRunWordCountEndToEnd(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	res, err := Run(cluster, wordCountJob(4*GiB))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("reduce output should not be empty")
	}
	// Every sampled map task emits 512 pairs; the reduce side must conserve
	// the total count.
	var total float64
	for _, kv := range res.Output {
		total += kv.Num
	}
	if total != 4*512 {
		t.Fatalf("word count total %g, want %d", total, 4*512)
	}
	if res.Scale < 1000 {
		t.Fatalf("4 GiB over 256 KiB sample should extrapolate by >1000x, got %g", res.Scale)
	}
	if cluster.Elapsed() <= 11 {
		t.Fatalf("job should take longer than setup+cleanup alone, got %g", cluster.Elapsed())
	}
	// Counters: the job reads the whole configured input from disk (within
	// rounding of the extrapolation).
	var diskRead uint64
	for _, n := range cluster.Workers() {
		diskRead += n.Counters().DiskReadBytes
	}
	if diskRead < 3*GiB {
		t.Fatalf("extrapolated disk reads %d should approach the 4 GiB input", diskRead)
	}
	if cluster.Master().Counters().Instructions() != 0 {
		t.Fatal("master node should not execute map/reduce tasks")
	}
	rep := cluster.Report("wordcount")
	if err := rep.Aggregate.Validate(); err != nil {
		t.Fatalf("aggregate counters inconsistent: %v", err)
	}
	if rep.Metrics.DiskBW <= 0 {
		t.Fatal("disk bandwidth metric should be positive")
	}
}

func TestRunValidation(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	if _, err := Run(cluster, Job{Config: Config{Name: "x"}}); err == nil {
		t.Fatal("missing input volume should be rejected")
	}
	job := wordCountJob(GiB)
	job.Map = nil
	if _, err := Run(cluster, job); err == nil {
		t.Fatal("missing map function should be rejected")
	}
	bad := wordCountJob(GiB)
	bad.Config.SampleBytesPerTask = 0
	if _, err := Run(cluster, bad); err == nil {
		t.Fatal("missing sampling configuration should be rejected")
	}
}

func TestMapOnlyJob(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	job := wordCountJob(GiB)
	job.Reduce = nil
	res, err := Run(cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatal("map-only job should have no reduce output")
	}
	if len(res.MapOutputSample) == 0 {
		t.Fatal("map output sample should be recorded")
	}
}

func TestConfigDefaultsScaleWithCluster(t *testing.T) {
	if heapPerTask(sim.ThreeNodeWestmere64GB()) <= heapPerTask(sim.FiveNodeWestmere()) {
		t.Fatal("64 GB nodes should get larger per-task heaps than 32 GB nodes")
	}
	cfgSmall := Config{Name: "a", TotalInputBytes: GiB, SampleBytesPerTask: KiB}.withDefaults(4)
	cfgBig := Config{Name: "a", TotalInputBytes: GiB, SampleBytesPerTask: KiB}.withDefaults(2)
	if cfgSmall.NumReduceTasks != 8 || cfgBig.NumReduceTasks != 4 {
		t.Fatalf("reduce task defaults should track worker count, got %d and %d",
			cfgSmall.NumReduceTasks, cfgBig.NumReduceTasks)
	}
	if cfgSmall.ReplicationFactor != 3 {
		t.Fatal("Hadoop-like defaults expected")
	}
}

func TestNumMapTasks(t *testing.T) {
	cfg := Config{TotalInputBytes: 100 * GiB}
	if got := cfg.NumMapTasks(); got != 800 {
		t.Fatalf("NumMapTasks = %d, want 800", got)
	}
	cfg = Config{TotalInputBytes: 1}
	if got := cfg.NumMapTasks(); got != 1 {
		t.Fatalf("NumMapTasks = %d, want 1", got)
	}
}

func TestLargerInputTakesLonger(t *testing.T) {
	small := sim.MustNewCluster(sim.FiveNodeWestmere())
	if _, err := Run(small, wordCountJob(2*GiB)); err != nil {
		t.Fatal(err)
	}
	large := sim.MustNewCluster(sim.FiveNodeWestmere())
	if _, err := Run(large, wordCountJob(20*GiB)); err != nil {
		t.Fatal(err)
	}
	if large.Elapsed() <= small.Elapsed() {
		t.Fatalf("10x input should take longer: %g vs %g", large.Elapsed(), small.Elapsed())
	}
}

func TestMoreNodesFinishFaster(t *testing.T) {
	// The same job on a 5-node cluster (4 workers) should beat the 3-node
	// cluster (2 workers), mirroring Table VI vs Table VII.
	five := sim.MustNewCluster(sim.FiveNodeWestmere())
	if _, err := Run(five, wordCountJob(32*GiB)); err != nil {
		t.Fatal(err)
	}
	three := sim.MustNewCluster(sim.ThreeNodeWestmere64GB())
	if _, err := Run(three, wordCountJob(32*GiB)); err != nil {
		t.Fatal(err)
	}
	if five.Elapsed() >= three.Elapsed() {
		t.Fatalf("4 workers (%g s) should beat 2 workers (%g s)", five.Elapsed(), three.Elapsed())
	}
}

func TestPartitionAndGroupByKey(t *testing.T) {
	kvs := []KV{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}, {Key: 1}}
	shards := partition(kvs, 2)
	if len(shards) != 2 {
		t.Fatalf("expected 2 shards, got %d", len(shards))
	}
	var total int
	for _, s := range shards {
		total += len(s.kvs)
		for _, kv := range s.kvs {
			if int(uint64(kv.Key)%2) != s.reducer {
				t.Fatalf("key %d landed in reducer %d", kv.Key, s.reducer)
			}
		}
	}
	if total != len(kvs) {
		t.Fatal("partition must conserve pairs")
	}
	if got := partition(kvs, 0); len(got) != 1 {
		t.Fatal("non-positive reducer count should collapse to one shard")
	}

	sorted := []KV{{Key: 1, Num: 1}, {Key: 1, Num: 2}, {Key: 5, Num: 3}}
	groups := groupByKey(sorted)
	if len(groups) != 2 || len(groups[0].vals) != 2 || groups[1].key != 5 {
		t.Fatalf("groupByKey wrong: %+v", groups)
	}
	if len(groupByKey(nil)) != 0 {
		t.Fatal("empty input should have no groups")
	}
}

func TestKVSize(t *testing.T) {
	kv := KV{Key: 1, Bytes: make([]byte, 100), Num: 2}
	if kv.Size() != 116 {
		t.Fatalf("Size = %d", kv.Size())
	}
	if kvBytes([]KV{kv, kv}) != 232 {
		t.Fatal("kvBytes should sum sizes")
	}
}

func TestSpillIncreasesDiskTraffic(t *testing.T) {
	// A job whose per-task output exceeds the 256 MiB sort buffer must write
	// more to disk per output pair than one whose output fits: a 64 KiB
	// sample stands for a 128 MiB split, so 240 pairs of 528 bytes
	// extrapolate to 247.5 MiB per map task and 256 pairs to 264 MiB.
	writesPerPair := func(pairs int) float64 {
		cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
		job := wordCountJob(4 * GiB)
		job.Map = func(ex *sim.Exec, split Split) []KV {
			kvs := make([]KV, 0, pairs)
			for i := 0; i < pairs; i++ {
				kvs = append(kvs, KV{Key: int64(i), Bytes: make([]byte, 512)})
			}
			return kvs
		}
		if _, err := Run(cluster, job); err != nil {
			t.Fatal(err)
		}
		var writes uint64
		for _, n := range cluster.Workers() {
			writes += n.Counters().DiskWriteBytes
		}
		return float64(writes) / float64(pairs)
	}
	buffered := writesPerPair(240)
	spilling := writesPerPair(256)
	if spilling <= 1.25*buffered {
		t.Fatalf("spilling job should write more to disk per pair (%g vs %g)", spilling, buffered)
	}
}

func TestGCPauseScalesWithAllocation(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	var small, large uint64
	cluster.RunOnNode("gc-small", 1, 1, func(ex *sim.Exec) {
		gcPause(ex, 100*MiB, GiB)
		small = ex.Counters().IntInstrs
	})
	cluster.RunOnNode("gc-large", 1, 1, func(ex *sim.Exec) {
		gcPause(ex, 10*GiB, GiB)
		large = ex.Counters().IntInstrs
	})
	if large <= small {
		t.Fatalf("more allocation should trigger more GC work (%d vs %d)", large, small)
	}
	cluster.RunOnNode("gc-none", 1, 1, func(ex *sim.Exec) {
		gcPause(ex, 0, 0)
		if ex.Counters().IntInstrs != 0 {
			t.Error("zero heap should skip the GC model")
		}
	})
}

// Package workloads implements the five real-world workloads of the paper's
// evaluation — Hadoop TeraSort, Hadoop K-means, Hadoop PageRank, TensorFlow
// AlexNet and TensorFlow Inception-V3 — on top of the mapreduce and dataflow
// substrates.  These are the "original benchmarks" the proxy benchmarks are
// tuned against: they carry the heavy software-stack behaviour (framework
// code footprint, GC, shuffle, parameter-server traffic) and the full
// configured data volumes of Section III-B.
package workloads

import (
	"fmt"
	"sort"

	"dataproxy/internal/datagen"
	"dataproxy/internal/mapreduce"
	"dataproxy/internal/sim"
)

// Pattern tags a workload with the paper's workload-pattern classification
// (Table III).
type Pattern string

// Workload patterns from Table III.
const (
	IOIntensive        Pattern = "I/O Intensive"
	CPUIntensive       Pattern = "CPU Intensive"
	MemoryIntensive    Pattern = "Memory Intensive"
	CPUAndIOIntensive  Pattern = "CPU + I/O Intensive"
	CPUAndMemIntensive Pattern = "CPU + Memory Intensive"
)

// Spec is one runnable real workload.
type Spec struct {
	// Name is the workload name as used in the paper, e.g. "Hadoop TeraSort".
	Name string
	// ShortName is the key used by proxies and the experiment harness,
	// e.g. "terasort".
	ShortName string
	// Pattern is the workload-pattern classification of Table III.
	Pattern Pattern
	// DataSet describes the input data.
	DataSet string
	// Run executes the workload on the cluster, advancing its virtual clock.
	Run func(cluster *sim.Cluster) error
}

// Validate reports malformed specs.
func (s Spec) Validate() error {
	if s.Name == "" || s.ShortName == "" || s.Run == nil {
		return fmt.Errorf("workloads: incomplete spec %+v", s)
	}
	return nil
}

// GiB re-exports the byte unit for callers configuring input sizes.
const GiB = mapreduce.GiB

// TeraSort returns the Hadoop TeraSort workload over the given volume of
// gensort text records (the paper uses 100 GB).
func TeraSort(inputBytes uint64) Spec {
	return Spec{
		Name:      "Hadoop TeraSort",
		ShortName: "terasort",
		Pattern:   IOIntensive,
		DataSet:   "Text (gensort records)",
		Run: func(cluster *sim.Cluster) error {
			return runTeraSort(cluster, inputBytes)
		},
	}
}

func runTeraSort(cluster *sim.Cluster, inputBytes uint64) error {
	const numPartitions = 64
	job := mapreduce.Job{
		Config: mapreduce.Config{
			Name:               "terasort",
			TotalInputBytes:    inputBytes,
			NumReduceTasks:     numPartitions / 8,
			ReplicationFactor:  1, // benchmark output is written unreplicated
			SampleBytesPerTask: 768 * mapreduce.KiB,
		},
		Map: func(ex *sim.Exec, split mapreduce.Split) []mapreduce.KV {
			records, err := datagen.GenerateRecords(datagen.TextConfig{
				Seed:    int64(split.Index) + 1,
				Records: int(split.SampleBytes / datagen.RecordSize),
			})
			if err != nil {
				return nil
			}
			region := ex.Node().Alloc(split.SampleBytes)
			kvs := make([]mapreduce.KV, 0, len(records))
			for i, rec := range records {
				// Parse the record and route it to its range partition: the
				// TeraSort partitioner compares the key prefix against the
				// sampled split points.
				ex.Load(region, uint64(i)*datagen.RecordSize, datagen.RecordSize)
				partition := int64(rec.Key[0]) * numPartitions / 95 // printable range
				if partition >= numPartitions {
					partition = numPartitions - 1
				}
				ex.Int(14)
				ex.Branch(1001, partition < numPartitions/2)
				payload := make([]byte, datagen.RecordSize)
				copy(payload, rec.Key[:])
				copy(payload[datagen.RecordKeySize:], rec.Payload[:])
				kvs = append(kvs, mapreduce.KV{Key: partition, Bytes: payload})
			}
			return kvs
		},
		Reduce: func(ex *sim.Exec, key int64, values []mapreduce.KV) []mapreduce.KV {
			// Sort the partition's records by full key: this is where
			// TeraSort spends its reduce-side CPU.
			region := ex.Node().Alloc(uint64(len(values)) * datagen.RecordSize)
			sort.Slice(values, func(i, j int) bool {
				ex.Touch(region, uint64(i)*datagen.RecordSize, false)
				ex.Touch(region, uint64(j)*datagen.RecordSize, false)
				ex.Int(10)
				less := lessBytes(values[i].Bytes, values[j].Bytes)
				ex.Branch(1002, less)
				return less
			})
			out := make([]mapreduce.KV, len(values))
			for i, v := range values {
				ex.Store(region, uint64(i)*datagen.RecordSize, datagen.RecordSize)
				out[i] = mapreduce.KV{Key: key, Bytes: v.Bytes}
			}
			return out
		},
	}
	_, err := mapreduce.Run(cluster, job)
	return err
}

func lessBytes(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n && i < datagen.RecordKeySize; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// KMeansConfig parameterises the Hadoop K-means workload.
type KMeansConfig struct {
	InputBytes uint64
	Dim        int
	Clusters   int
	Sparsity   float64
}

// DefaultKMeans returns the paper's configuration: 100 GB of 90%-sparse
// vectors.
func DefaultKMeans() KMeansConfig {
	return KMeansConfig{InputBytes: 100 * GiB, Dim: 256, Clusters: 8, Sparsity: 0.9}
}

// KMeans returns one iteration of Hadoop K-means over the configured vector
// data set (the paper reports per-iteration time).
func KMeans(cfg KMeansConfig) Spec {
	name := "Hadoop K-means"
	return Spec{
		Name:      name,
		ShortName: "kmeans",
		Pattern:   CPUAndMemIntensive,
		DataSet:   fmt.Sprintf("Vectors (%.0f%% sparse)", cfg.Sparsity*100),
		Run: func(cluster *sim.Cluster) error {
			return runKMeans(cluster, cfg)
		},
	}
}

func runKMeans(cluster *sim.Cluster, cfg KMeansConfig) error {
	if cfg.Dim <= 0 || cfg.Clusters <= 0 {
		return fmt.Errorf("workloads: invalid k-means config %+v", cfg)
	}
	vectorBytes := uint64(cfg.Dim) * 8
	job := mapreduce.Job{
		Config: mapreduce.Config{
			Name:               "kmeans",
			TotalInputBytes:    cfg.InputBytes,
			SampleBytesPerTask: 1200 * vectorBytes,
		},
		Map: func(ex *sim.Exec, split mapreduce.Split) []mapreduce.KV {
			count := int(split.SampleBytes / vectorBytes)
			vectors, err := datagen.GenerateVectors(datagen.VectorConfig{
				Seed: int64(split.Index) + 7, Count: count, Dim: cfg.Dim, Sparsity: cfg.Sparsity,
			})
			if err != nil {
				return nil
			}
			centroids, err := datagen.GenerateVectors(datagen.VectorConfig{
				Seed: 99, Count: cfg.Clusters, Dim: cfg.Dim, Sparsity: 0,
			})
			if err != nil {
				return nil
			}
			region := ex.Node().Alloc(uint64(count) * vectorBytes)
			centRegion := ex.Node().Alloc(uint64(cfg.Clusters) * vectorBytes)
			// Combiner-style partial sums per cluster, as Mahout K-means does.
			sums := make([][]float64, cfg.Clusters)
			counts := make([]int64, cfg.Clusters)
			for c := range sums {
				sums[c] = make([]float64, cfg.Dim)
			}
			for i, v := range vectors {
				ex.Load(region, uint64(i)*vectorBytes, vectorBytes)
				ex.Int(1500) // per-vector record parsing and object churn
				best, bestDist := 0, 1.0e308
				for c, cent := range centroids {
					ex.Load(centRegion, uint64(c)*vectorBytes, vectorBytes)
					var dist float64
					nonZero := 0
					for d := 0; d < cfg.Dim; d++ {
						if v[d] == 0 && cent[d] == 0 {
							continue
						}
						nonZero++
						diff := v[d] - cent[d]
						dist += diff * diff
					}
					ex.Float(uint64(3*nonZero + 2))
					// Mahout-style loop, boxing and Writable deserialisation
					// overhead on the JVM.
					ex.Int(uint64(cfg.Dim) * 6)
					closer := dist < bestDist
					ex.Branch(1101, closer)
					if closer {
						best, bestDist = c, dist
					}
				}
				for d := 0; d < cfg.Dim; d++ {
					sums[best][d] += v[d]
				}
				ex.Float(uint64(cfg.Dim))
				counts[best]++
			}
			kvs := make([]mapreduce.KV, 0, cfg.Clusters)
			for c := 0; c < cfg.Clusters; c++ {
				if counts[c] == 0 {
					continue
				}
				payload := make([]byte, cfg.Dim*8)
				kvs = append(kvs, mapreduce.KV{Key: int64(c), Bytes: payload, Num: float64(counts[c])})
			}
			return kvs
		},
		Reduce: func(ex *sim.Exec, key int64, values []mapreduce.KV) []mapreduce.KV {
			var count float64
			for _, v := range values {
				count += v.Num
				ex.Float(uint64(cfg.Dim))
				ex.Int(8)
			}
			return []mapreduce.KV{{Key: key, Bytes: make([]byte, cfg.Dim*8), Num: count}}
		},
	}
	_, err := mapreduce.Run(cluster, job)
	return err
}

// PageRankConfig parameterises the Hadoop PageRank workload.
type PageRankConfig struct {
	Vertices  int
	AvgDegree int
}

// DefaultPageRank returns the paper's configuration (a 2^26-vertex graph
// generated by BDGS).
func DefaultPageRank() PageRankConfig {
	return PageRankConfig{Vertices: 1 << 26, AvgDegree: 16}
}

// PageRank returns one iteration of Hadoop PageRank over the configured
// graph (the paper reports per-iteration time).
func PageRank(cfg PageRankConfig) Spec {
	return Spec{
		Name:      "Hadoop PageRank",
		ShortName: "pagerank",
		Pattern:   CPUAndIOIntensive,
		DataSet:   fmt.Sprintf("Graph (%d vertices)", cfg.Vertices),
		Run: func(cluster *sim.Cluster) error {
			return runPageRank(cluster, cfg)
		},
	}
}

func runPageRank(cluster *sim.Cluster, cfg PageRankConfig) error {
	if cfg.Vertices <= 0 {
		return fmt.Errorf("workloads: invalid pagerank config %+v", cfg)
	}
	if cfg.AvgDegree <= 0 {
		cfg.AvgDegree = 16
	}
	// Text edge-list representation on HDFS (vertex, destination, rank):
	// ~40 bytes per edge.
	inputBytes := uint64(cfg.Vertices) * uint64(cfg.AvgDegree) * 40
	const rankPartitions = 128
	job := mapreduce.Job{
		Config: mapreduce.Config{
			Name:               "pagerank",
			TotalInputBytes:    inputBytes,
			SampleBytesPerTask: 1 * mapreduce.MiB,
		},
		Map: func(ex *sim.Exec, split mapreduce.Split) []mapreduce.KV {
			// Each split covers a vertex range of the graph; regenerate that
			// portion (the real job would parse adjacency text).
			vertices := int(split.SampleBytes / (uint64(cfg.AvgDegree) * 40))
			if vertices < 1 {
				vertices = 1
			}
			g, err := datagen.GeneratePowerLawGraph(datagen.GraphConfig{
				Seed: int64(split.Index) + 31, Vertices: vertices, AvgDegree: cfg.AvgDegree,
			})
			if err != nil {
				return nil
			}
			adjRegion := ex.Node().Alloc(uint64(g.NumEdges()) * 4)
			ranks := make([]float64, vertices)
			for i := range ranks {
				ranks[i] = 1.0 / float64(cfg.Vertices)
			}
			contrib := make(map[int64]float64)
			for v := 0; v < vertices; v++ {
				deg := g.OutDegree(v)
				ex.Int(20) // parse the adjacency line
				ex.Branch(1201, deg > 0)
				if deg == 0 {
					continue
				}
				share := ranks[v] / float64(deg)
				ex.Float(2)
				for _, w := range g.Adj[v] {
					ex.Touch(adjRegion, uint64(w)*4, false)
					bucket := int64(w) % rankPartitions
					contrib[bucket] += share
					ex.Float(1)
					// Per-edge text parsing and Writable construction.
					ex.Int(36)
				}
			}
			// Emit buckets in order so the shuffle's sort accounting sees a
			// deterministic input stream across runs.
			kvs := make([]mapreduce.KV, 0, len(contrib))
			for bucket := int64(0); bucket < rankPartitions; bucket++ {
				if c, ok := contrib[bucket]; ok {
					kvs = append(kvs, mapreduce.KV{Key: bucket, Num: c, Bytes: make([]byte, 16)})
				}
			}
			return kvs
		},
		Reduce: func(ex *sim.Exec, key int64, values []mapreduce.KV) []mapreduce.KV {
			const damping = 0.85
			var sum float64
			for _, v := range values {
				sum += v.Num
				ex.Float(1)
				ex.Int(4)
			}
			rank := (1-damping)/float64(cfg.Vertices) + damping*sum
			ex.Float(4)
			return []mapreduce.KV{{Key: key, Num: rank, Bytes: make([]byte, 16)}}
		},
	}
	_, err := mapreduce.Run(cluster, job)
	return err
}

// Package proxy defines the five generated proxy benchmarks of the paper's
// evaluation (Table III): Proxy TeraSort, Proxy K-means, Proxy PageRank,
// Proxy AlexNet and Proxy Inception-V3.  Each is a DAG of data motif
// implementations with initial weights set from the hotspot execution ratios
// of the corresponding real workload, driven by input data of the same type
// and distribution as the original workload's input.
package proxy

import (
	"fmt"

	"dataproxy/internal/aimotif"
	"dataproxy/internal/core"
	"dataproxy/internal/datagen"
	"dataproxy/internal/motif"
	"dataproxy/internal/tensor"
)

const (
	mib = uint64(1024 * 1024)
	gib = 1024 * mib
)

// TeraSort returns Proxy TeraSort: quicksort + mergesort (Sort), random +
// interval sampling (Sampling) and graph construction + traversal (Graph)
// over gensort text records, with the 70/10/20 initial weights the paper
// quotes for Hadoop TeraSort.
func TeraSort() *core.Benchmark {
	return &core.Benchmark{
		Name:              "Proxy TeraSort",
		Workload:          "terasort",
		Base:              core.Params{DataSize: 2 * gib, ChunkSize: 64 * mib, NumTasks: 8, Weight: 1},
		SampleBytes:       1536 * 1024,
		SpillIntermediate: true,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			recs, err := datagen.GenerateRecords(datagen.TextConfig{
				Seed:    seed,
				Records: int(sampleBytes / datagen.RecordSize),
			})
			if err != nil {
				return &motif.Dataset{}
			}
			return &motif.Dataset{Records: recs}
		},
		Edges: []core.Edge{
			{Name: "random-sample", Impl: "random_sampling", From: core.InputNode, To: "sampled", Weight: 0.05},
			{Name: "interval-sample", Impl: "interval_sampling", From: core.InputNode, To: "boundaries", Weight: 0.05},
			{Name: "quick-sort", Impl: "quicksort", From: core.InputNode, To: "sorted", Weight: 0.45},
			{Name: "merge-sort", Impl: "mergesort", From: "sorted", To: "merged", Weight: 0.25},
			{Name: "graph-construct", Impl: "graph_construction", From: "boundaries", To: "partition-tree", Weight: 0.10},
			{Name: "graph-traverse", Impl: "graph_traversal", From: "partition-tree", To: "routed", Weight: 0.10},
		},
	}
}

// KMeans returns Proxy K-means over 90%-sparse vectors (the original
// workload's configuration).
func KMeans() *core.Benchmark { return KMeansWithSparsity(0.9) }

// KMeansWithSparsity returns the same Proxy K-means benchmark driven by
// vector input of the given sparsity.  The paper's data-impact case study
// (Section IV-A) runs one generated proxy with both 90%-sparse and dense
// input data.
func KMeansWithSparsity(sparsity float64) *core.Benchmark {
	const dim = 256
	return &core.Benchmark{
		Name:              "Proxy K-means",
		Workload:          "kmeans",
		Base:              core.Params{DataSize: 3 * gib, ChunkSize: 32 * mib, NumTasks: 8, Weight: 1},
		SampleBytes:       2 * mib,
		SpillIntermediate: true,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			count := int(sampleBytes / (dim * 8))
			vecs, err := datagen.GenerateVectors(datagen.VectorConfig{
				Seed: seed, Count: count, Dim: dim, Sparsity: sparsity,
			})
			if err != nil {
				return &motif.Dataset{}
			}
			return &motif.Dataset{Vectors: vecs}
		},
		Edges: []core.Edge{
			{Name: "euclidean", Impl: "euclidean_distance", From: core.InputNode, To: "assigned", Weight: 0.55},
			{Name: "cosine", Impl: "cosine_distance", From: core.InputNode, To: "scored", Weight: 0.22},
			{Name: "cluster-count", Impl: "count_statistics", From: "assigned", To: "cluster-stats", Weight: 0.10},
			{Name: "sort-distances", Impl: "quicksort", From: "assigned", To: "sorted", Weight: 0.08},
			{Name: "merge-partials", Impl: "mergesort", From: "cluster-stats", To: "merged", Weight: 0.05},
		},
	}
}

// PageRank returns Proxy PageRank: matrix construction and multiplication,
// sort and min/max, and per-vertex degree statistics over a power-law graph.
func PageRank() *core.Benchmark {
	return &core.Benchmark{
		Name:              "Proxy PageRank",
		Workload:          "pagerank",
		Base:              core.Params{DataSize: 2 * gib, ChunkSize: 32 * mib, NumTasks: 8, Weight: 1},
		SampleBytes:       2 * mib,
		SpillIntermediate: true,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			vertices := int(sampleBytes / 200)
			g, err := datagen.GeneratePowerLawGraph(datagen.GraphConfig{
				Seed: seed, Vertices: vertices, AvgDegree: 16,
			})
			if err != nil {
				return &motif.Dataset{}
			}
			return &motif.Dataset{Graph: g}
		},
		Edges: []core.Edge{
			{Name: "matrix-construct", Impl: "matrix_construction", From: core.InputNode, To: "transition", Weight: 0.18},
			{Name: "matrix-multiply", Impl: "matrix_multiplication", From: "transition", To: "ranks", Weight: 0.04},
			{Name: "degree-count", Impl: "degree_statistics", From: core.InputNode, To: "degrees", Weight: 0.36},
			{Name: "rank-sort", Impl: "quicksort", From: "degrees", To: "sorted", Weight: 0.28},
			{Name: "rank-minmax", Impl: "minmax_statistics", From: "ranks", To: "extrema", Weight: 0.14},
		},
	}
}

// imageInput builds an NCHW tensor data set of synthetic images with the
// given geometry, standing in for CIFAR-10 / ILSVRC2012 samples: as many
// images as the sample holds, at least one and at most the batch size.
func imageInput(channels, height, width int) func(seed int64, sampleBytes uint64, batchSize int) *motif.Dataset {
	return func(seed int64, sampleBytes uint64, batchSize int) *motif.Dataset {
		perImage := uint64(channels*height*width) * 4
		count := int(sampleBytes / perImage)
		if count < 1 {
			count = 1
		}
		if batchSize > 0 && count > batchSize {
			count = batchSize
		}
		images, err := datagen.GenerateImages(datagen.ImageConfig{
			Seed: seed, Count: count, Channels: channels, Height: height, Width: width,
		})
		if err != nil {
			return &motif.Dataset{}
		}
		batch := aimotif.ImagesToTensor(images, channels, height, width)
		return &motif.Dataset{Tensors: []*tensor.Tensor{batch}}
	}
}

// AlexNet returns Proxy AlexNet: convolution, max pooling, fully connected
// and batch normalisation over CIFAR-10-shaped image batches (Table III).
func AlexNet() *core.Benchmark {
	return &core.Benchmark{
		Name:        "Proxy AlexNet",
		Workload:    "alexnet",
		Base:        core.Params{DataSize: 1 * gib, ChunkSize: 8 * mib, NumTasks: 8, Weight: 1, BatchSize: 8},
		SampleBytes: 8 * uint64(3*32*32) * 4,
		Input:       imageInput(3, 32, 32),
		Edges: []core.Edge{
			{Name: "conv", Impl: "convolution", From: core.InputNode, To: "features", Weight: 0.50},
			{Name: "max-pool", Impl: "max_pooling", From: "features", To: "pooled", Weight: 0.15},
			{Name: "batch-norm", Impl: "batch_norm", From: "pooled", To: "normalised", Weight: 0.10},
			{Name: "fully-connected", Impl: "fully_connected", From: "normalised", To: "logits", Weight: 0.25},
		},
	}
}

// InceptionV3 returns Proxy Inception-V3: convolution, pooling (max and
// average), ReLU, dropout, fully connected + softmax and batch normalisation
// over ILSVRC2012-shaped image batches (Table III).
func InceptionV3() *core.Benchmark {
	const side = 75 // 299/4, matching the scaled-down real-workload model
	return &core.Benchmark{
		Name:        "Proxy Inception-V3",
		Workload:    "inception",
		Base:        core.Params{DataSize: 2 * gib, ChunkSize: 8 * mib, NumTasks: 8, Weight: 1, BatchSize: 4},
		SampleBytes: 4 * uint64(3*side*side) * 4,
		Input:       imageInput(3, side, side),
		Edges: []core.Edge{
			{Name: "conv", Impl: "convolution", From: core.InputNode, To: "features", Weight: 0.50},
			{Name: "relu", Impl: "relu", From: "features", To: "activated", Weight: 0.08},
			{Name: "max-pool", Impl: "max_pooling", From: "activated", To: "pooled", Weight: 0.08},
			{Name: "avg-pool", Impl: "avg_pooling", From: "activated", To: "avg-pooled", Weight: 0.06},
			{Name: "batch-norm", Impl: "batch_norm", From: "pooled", To: "normalised", Weight: 0.10},
			{Name: "dropout", Impl: "dropout", From: "normalised", To: "dropped", Weight: 0.05},
			{Name: "fully-connected", Impl: "fully_connected", From: "dropped", To: "logits", Weight: 0.08},
			{Name: "softmax", Impl: "softmax", From: "logits", To: "probabilities", Weight: 0.05},
		},
	}
}

// table is the five proxy benchmarks in the paper's order, built once.
// All and ForWorkload share it, so nothing may write to it; the named
// constructors above build fresh values for callers that edit one.
var table = []*core.Benchmark{TeraSort(), KMeans(), PageRank(), AlexNet(), InceptionV3()}

// All returns the five proxy benchmarks in the paper's order.  The slice
// and the benchmarks are shared and read-only.
func All() []*core.Benchmark { return table }

// Workloads returns the short names of the real workloads that have a
// generated proxy ("terasort", "kmeans", ...), in the paper's order.  It is
// the valid input domain of ForWorkload and what the serving layer's
// GET /v1/workloads endpoint enumerates.
func Workloads() []string {
	names := make([]string, len(table))
	for i, b := range table {
		names[i] = b.Workload
	}
	return names
}

// ForWorkload returns the proxy benchmark mimicking the named real workload
// ("terasort", "kmeans", "pagerank", "alexnet", "inception").  The benchmark
// is shared and read-only.
func ForWorkload(shortName string) (*core.Benchmark, error) {
	for _, b := range table {
		if b.Workload == shortName {
			return b, nil
		}
	}
	return nil, fmt.Errorf("proxy: no proxy benchmark for workload %q", shortName)
}

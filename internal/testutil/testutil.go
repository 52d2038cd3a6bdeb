// Package testutil provides the cluster, trace, setting and benchmark
// builders shared by the test suites of the sim, core, tuner, serve and
// campaign packages, which previously each carried their own copy.
//
// Everything here is deterministic given its seed arguments: the builders
// feed determinism property tests, so they must never read global PRNG
// state ("seeded PRNG only, never range over maps on a result path").
// Because this package imports sim and core, their *in-package* test files
// cannot use it — tests that need these helpers live in external _test
// packages (e.g. package sim_test).
package testutil

import (
	"math/rand"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/datagen"
	"dataproxy/internal/motif"
	"dataproxy/internal/sim"
)

// NamedProfile pairs a stock architecture profile with its short name.
type NamedProfile struct {
	Name    string
	Profile arch.Profile
}

// Profiles returns the stock architecture profiles in a fixed order (a
// slice, not a map, so ranging over it in a subtest loop is
// deterministic).
func Profiles() []NamedProfile {
	return []NamedProfile{
		{Name: "westmere", Profile: arch.Westmere()},
		{Name: "haswell", Profile: arch.Haswell()},
	}
}

// Cluster builds a fresh single-node cluster for the given profile — the
// configuration proxy benchmarks execute on.
func Cluster(p arch.Profile) *sim.Cluster {
	return sim.MustNewCluster(sim.SingleNode(p, 0))
}

// WestmereCluster builds the single-node Westmere cluster most tests
// measure on.
func WestmereCluster() *sim.Cluster { return Cluster(arch.Westmere()) }

// Pool builds a cluster pool over a fresh single-node prototype of the
// given profile.
func Pool(p arch.Profile) *sim.ClusterPool {
	return sim.NewClusterPool(Cluster(p))
}

// DriveRandomTrace replays a deterministic pseudo-random workload trace on
// one Exec: region allocations, sequential and wrapping loads/stores,
// resident re-streams, random touches, branches with mixed outcomes,
// instruction bursts and I/O, exercising every state-carrying component a
// Reset (or a state export/import) must handle: cache slabs, LRU clocks,
// branch history, address allocator, counters and virtual time.
func DriveRandomTrace(ex *sim.Exec, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ex.SetCodeFootprint(uint64(32+rng.Intn(512))*1024, 40+rng.Intn(100))
	regions := make([]sim.Region, 0, 8)
	for i := 0; i < 4; i++ {
		regions = append(regions, ex.Node().Alloc(uint64(1+rng.Intn(1<<18))))
	}
	for op := 0; op < 200; op++ {
		r := regions[rng.Intn(len(regions))]
		off := uint64(rng.Intn(1 << 19))
		size := uint64(1 + rng.Intn(1<<14))
		switch rng.Intn(8) {
		case 0:
			ex.Load(r, off, size)
		case 1:
			ex.Store(r, off, size)
		case 2:
			ex.LoadResident(r, off%r.Size(), size%r.Size()+1)
		case 3:
			ex.Touch(r, off, rng.Intn(2) == 0)
		case 4:
			ex.Int(uint64(rng.Intn(10000)))
			ex.Float(uint64(rng.Intn(10000)))
		case 5:
			for b := 0; b < 32; b++ {
				ex.Branch(uint64(100+rng.Intn(6)), rng.Intn(3) != 0)
			}
		case 6:
			ex.ReadDisk(uint64(rng.Intn(1 << 22)))
			ex.WriteDisk(uint64(rng.Intn(1 << 20)))
		case 7:
			ex.NetSend(uint64(rng.Intn(1 << 20)))
			ex.NetRecv(uint64(rng.Intn(1 << 20)))
		}
	}
}

// RunRandomWorkload executes a multi-stage randomized workload on the
// cluster and returns its report.
func RunRandomWorkload(c *sim.Cluster, seed int64) sim.Report {
	c.AdvanceTime("setup", 1.5)
	for stage := 0; stage < 2; stage++ {
		stageSeed := seed + int64(stage)*1000
		c.RunTasks("stage", 2*len(c.Nodes()), 1.5, func(i int, ex *sim.Exec) {
			DriveRandomTrace(ex, stageSeed+int64(i))
		})
	}
	return c.Report("random-trace")
}

// RandomSetting draws a setting over the tunable parameters of the test
// benchmarks, biased so several settings share a trace (weight/dataSize-
// only perturbations) while others change the trace shape.  It returns nil
// (the defaults) when no parameter is drawn, exercising nil-setting paths.
func RandomSetting(rng *rand.Rand) core.Setting {
	s := core.Setting{}
	pick := func(name string, factors ...float64) {
		if rng.Intn(2) == 0 {
			s[name] = factors[rng.Intn(len(factors))]
		}
	}
	pick("dataSize", 0.25, 0.5, 1, 2, 4)
	pick("weight", 0.5, 1, 1.6, 2.5)
	pick("chunkSize", 0.5, 1, 2)
	pick("numTasks", 0.5, 1, 2)
	if len(s) == 0 {
		return nil
	}
	return s
}

// SmallBenchmark builds the fast two-edge proxy benchmark (quicksort +
// count_statistics over generated text records) the tuner, batch and
// campaign-adjacent tests measure with.
func SmallBenchmark() *core.Benchmark {
	return &core.Benchmark{
		Name:        "Proxy Test",
		Workload:    "test",
		Base:        core.Params{DataSize: 256 << 20, ChunkSize: 8 << 20, NumTasks: 4, Weight: 1},
		SampleBytes: 128 << 10,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			recs, _ := datagen.GenerateRecords(datagen.TextConfig{Seed: seed, Records: int(sampleBytes / datagen.RecordSize)})
			return &motif.Dataset{Records: recs}
		},
		Edges: []core.Edge{
			{Name: "sort", Impl: "quicksort", From: core.InputNode, To: "sorted", Weight: 0.8},
			{Name: "stats", Impl: "count_statistics", From: core.InputNode, To: "stats", Weight: 0.2},
		},
	}
}

// GraphBenchmark builds a small PageRank-shaped proxy benchmark over a
// generated power-law graph of 100 vertices.  Its first three edges read
// inputs that no task count splits (matrix_construction and
// degree_statistics on the graph, minmax_statistics on the 100x100
// matrix), quicksort on the 100 degrees is the first edge that splits, and
// the last edge reads the first minmax_statistics output, whose region no
// earlier edge allocates.  At the default 1 MiB chunk size no share is
// chunked; the largest share is the 80000-byte matrix.
func GraphBenchmark() *core.Benchmark {
	return &core.Benchmark{
		Name:              "Proxy Graph Test",
		Workload:          "graph-test",
		Base:              core.Params{DataSize: 256 << 20, ChunkSize: 1 << 20, NumTasks: 4, Weight: 1},
		SampleBytes:       20000,
		SpillIntermediate: true,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			g, err := datagen.GeneratePowerLawGraph(datagen.GraphConfig{Seed: seed, Vertices: int(sampleBytes / 200), AvgDegree: 8})
			if err != nil {
				return &motif.Dataset{}
			}
			return &motif.Dataset{Graph: g}
		},
		Edges: []core.Edge{
			{Name: "matrix", Impl: "matrix_construction", From: core.InputNode, To: "matrix", Weight: 0.2},
			{Name: "degrees", Impl: "degree_statistics", From: core.InputNode, To: "degrees", Weight: 0.3},
			{Name: "extrema", Impl: "minmax_statistics", From: "matrix", To: "extrema", Weight: 0.1},
			{Name: "sort", Impl: "quicksort", From: "degrees", To: "sorted", Weight: 0.3},
			{Name: "range", Impl: "minmax_statistics", From: "extrema", To: "range", Weight: 0.1},
		},
	}
}

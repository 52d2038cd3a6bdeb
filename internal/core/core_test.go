package core

import (
	"strings"
	"testing"
	"testing/quick"

	"dataproxy/internal/arch"
	"dataproxy/internal/datagen"
	"dataproxy/internal/motif"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// testBenchmark builds a small DAG: input -> quicksort -> sorted,
// input -> random_sampling -> sampled, sampled -> count_statistics -> stats.
func testBenchmark() *Benchmark {
	return &Benchmark{
		Name:        "Proxy Test",
		Workload:    "test",
		Base:        Params{DataSize: 64 << 20, ChunkSize: 1 << 20, NumTasks: 4, Weight: 1},
		SampleBytes: 256 << 10,
		Input: func(seed int64, sampleBytes uint64, _ int) *motif.Dataset {
			recs, _ := datagen.GenerateRecords(datagen.TextConfig{Seed: seed, Records: int(sampleBytes / datagen.RecordSize)})
			return &motif.Dataset{Records: recs}
		},
		Edges: []Edge{
			{Name: "sort", Impl: "quicksort", From: InputNode, To: "sorted", Weight: 0.7},
			{Name: "sample", Impl: "random_sampling", From: InputNode, To: "sampled", Weight: 0.1},
			{Name: "stats", Impl: "count_statistics", From: "sampled", To: "stats", Weight: 0.2},
		},
	}
}

func singleNodeCluster() *sim.Cluster {
	return sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
}

func TestSettingDefaultsAndValidation(t *testing.T) {
	s := DefaultSetting()
	if len(s) != len(ParameterNames) {
		t.Fatalf("default setting has %d entries, want %d", len(s), len(ParameterNames))
	}
	for _, n := range ParameterNames {
		if s.Get(n) != 1 {
			t.Fatalf("default factor for %s = %g", n, s.Get(n))
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s["dataSize"] = 0.5
	c := s.Clone()
	c["dataSize"] = 2
	if s["dataSize"] != 0.5 {
		t.Fatal("Clone should not alias the original")
	}
	bad := Setting{"bogus": 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown parameter should be rejected")
	}
	bad = Setting{"dataSize": -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative factor should be rejected")
	}
	if (Setting{}).Get("dataSize") != 1 {
		t.Fatal("missing factor should default to 1")
	}
	if s.String() == "" {
		t.Fatal("String should render the setting")
	}
}

func TestSettingCanonical(t *testing.T) {
	// Missing parameters canonicalise like explicit 1.0 factors: the two
	// settings drive identical simulations, so they must share a memo key.
	if (Setting{}).Canonical() != DefaultSetting().Canonical() {
		t.Fatal("empty and default settings should canonicalise identically")
	}
	a := Setting{"dataSize": 0.5}
	b := Setting{"dataSize": 0.5, "weight": 1}
	if a.Canonical() != b.Canonical() {
		t.Fatal("an explicit identity factor should not change the canonical form")
	}
	c := Setting{"dataSize": 0.5000000000000001}
	if a.Canonical() == c.Canonical() {
		t.Fatal("canonical form must be bit-exact, not rounded")
	}
	if a.Canonical() == DefaultSetting().Canonical() {
		t.Fatal("different factors must canonicalise differently")
	}
	// Every parameter name appears, in canonical order.
	can := DefaultSetting().Canonical()
	prev := -1
	for _, n := range ParameterNames {
		i := strings.Index(can, n+"=")
		if i < 0 {
			t.Fatalf("canonical form misses %s: %s", n, can)
		}
		if i < prev {
			t.Fatalf("canonical form not in ParameterNames order: %s", can)
		}
		prev = i
	}
}

func TestParamsApply(t *testing.T) {
	p := Params{DataSize: 1000, ChunkSize: 100, NumTasks: 8, Weight: 1, BatchSize: 16}
	s := Setting{"dataSize": 2, "numTasks": 0.5, "batchSize": 2, "weight": 0.25}
	out := p.Apply(s)
	if out.DataSize != 2000 || out.NumTasks != 4 || out.BatchSize != 32 || out.Weight != 0.25 {
		t.Fatalf("Apply produced %+v", out)
	}
	if out.ChunkSize != 100 {
		t.Fatal("untouched parameters should be preserved")
	}
	// Factors never drive a non-zero parameter to zero.
	tiny := p.Apply(Setting{"numTasks": 0.001})
	if tiny.NumTasks != 1 {
		t.Fatalf("numTasks should clamp to 1, got %d", tiny.NumTasks)
	}
	// Zero (not-applicable) parameters stay zero.
	zero := Params{DataSize: 10}.Apply(Setting{"batchSize": 4})
	if zero.BatchSize != 0 {
		t.Fatal("inapplicable parameters must stay zero")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err == nil {
		t.Fatal("empty parameters should be rejected")
	}
	if err := (Params{DataSize: 1, Weight: -1}).Validate(); err == nil {
		t.Fatal("negative weight should be rejected")
	}
	if err := (Params{DataSize: 1}).Validate(); err == nil {
		t.Fatal("zero weight should be rejected: it would zero every edge's work")
	}
	if err := (Params{DataSize: 1, NumTasks: -1, Weight: 1}).Validate(); err == nil {
		t.Fatal("negative task count should be rejected")
	}
	if err := (Params{BatchSize: 4, Weight: 1}).Validate(); err == nil {
		t.Fatal("parameters without a dataSize should be rejected")
	}
	if err := (Params{DataSize: 1 << 30, BatchSize: 4, Weight: 1}).Validate(); err != nil {
		t.Fatalf("AI-style parameters should validate: %v", err)
	}
}

func TestBenchmarkValidate(t *testing.T) {
	b := testBenchmark()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := b.TotalWeight(); got < 0.99 || got > 1.01 {
		t.Fatalf("total weight %g, want 1.0", got)
	}
	motifs := b.Motifs()
	if len(motifs) != 3 || motifs[0] != "quicksort" {
		t.Fatalf("Motifs() = %v", motifs)
	}

	broken := testBenchmark()
	broken.Edges[0].Impl = "no-such-motif"
	if err := broken.Validate(); err == nil {
		t.Fatal("unknown motif should be rejected")
	}
	broken = testBenchmark()
	broken.Edges[0].Weight = 0
	if err := broken.Validate(); err == nil {
		t.Fatal("zero weight should be rejected")
	}
	broken = testBenchmark()
	broken.Edges = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("empty DAG should be rejected")
	}
	broken = testBenchmark()
	broken.Input = nil
	if err := broken.Validate(); err == nil {
		t.Fatal("missing input generator should be rejected")
	}
	broken = testBenchmark()
	broken.Edges[2].From = "nowhere"
	if err := broken.Validate(); err == nil {
		t.Fatal("unreachable data set should be rejected")
	}
	// A cycle: a -> b -> a.
	cyclic := testBenchmark()
	cyclic.Edges = []Edge{
		{Impl: "quicksort", From: "a", To: "b", Weight: 1},
		{Impl: "mergesort", From: "b", To: "a", Weight: 1},
	}
	if err := cyclic.Validate(); err == nil {
		t.Fatal("cyclic DAG should be rejected")
	}
}

func TestSortedEdgesRespectsDependencies(t *testing.T) {
	b := testBenchmark()
	// Reorder so a dependent edge appears first.
	b.Edges = []Edge{b.Edges[2], b.Edges[0], b.Edges[1]}
	order, err := b.sortedEdges()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, e := range order {
		pos[e.Name] = i
	}
	if pos["stats"] < pos["sample"] {
		t.Fatal("count_statistics must run after the sampling edge that produces its input")
	}
}

func TestRunProxyBenchmark(t *testing.T) {
	cluster := singleNodeCluster()
	rep, err := Run(cluster, testBenchmark(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime <= 0 {
		t.Fatal("proxy benchmark should take virtual time")
	}
	if rep.Aggregate.Instructions() == 0 {
		t.Fatal("proxy benchmark should execute instructions")
	}
	if err := rep.Aggregate.Validate(); err != nil {
		t.Fatal(err)
	}
	// One stage per edge plus the input stage.
	if len(rep.Stages) != 4 {
		t.Fatalf("expected 4 stages, got %d", len(rep.Stages))
	}
	// The sort edge (weight 0.7) represents most of the work: extrapolated
	// instruction counts should dwarf a single in-process sample's.
	if rep.Aggregate.DiskReadBytes == 0 {
		t.Fatal("the input stage should read from disk")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(singleNodeCluster(), testBenchmark(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(singleNodeCluster(), testBenchmark(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Aggregate != b.Aggregate {
		t.Fatal("identical runs should produce identical counters")
	}
	if a.Runtime != b.Runtime {
		t.Fatal("identical runs should produce identical virtual runtime")
	}
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	cluster := singleNodeCluster()
	broken := testBenchmark()
	broken.Edges[0].Impl = "nope"
	if _, err := Run(cluster, broken, nil); err == nil {
		t.Fatal("invalid benchmark should be rejected")
	}
	if _, err := Run(cluster, testBenchmark(), Setting{"bad": 1}); err == nil {
		t.Fatal("invalid setting should be rejected")
	}
}

func TestDataSizeFactorScalesRuntime(t *testing.T) {
	small, err := Run(singleNodeCluster(), testBenchmark(), Setting{"dataSize": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(singleNodeCluster(), testBenchmark(), Setting{"dataSize": 4})
	if err != nil {
		t.Fatal(err)
	}
	if large.Runtime <= small.Runtime {
		t.Fatalf("8x data size factor should increase runtime (%g vs %g)", large.Runtime, small.Runtime)
	}
	if large.Aggregate.Instructions() <= small.Aggregate.Instructions() {
		t.Fatal("8x data size factor should increase instruction count")
	}
}

func TestNumTasksFactorAffectsRuntimeNotVolume(t *testing.T) {
	serial, err := Run(singleNodeCluster(), testBenchmark(), Setting{"numTasks": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(singleNodeCluster(), testBenchmark(), Setting{"numTasks": 2})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Runtime >= serial.Runtime {
		t.Fatalf("more tasks should shorten the proxy runtime (%g vs %g)", parallel.Runtime, serial.Runtime)
	}
}

func TestRunEmptyInputStillCompletes(t *testing.T) {
	b := testBenchmark()
	b.Input = func(seed int64, sampleBytes uint64, _ int) *motif.Dataset { return nil }
	rep, err := Run(singleNodeCluster(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime < 0 {
		t.Fatal("runtime must be non-negative")
	}
}

func TestSplitAndMergeDatasets(t *testing.T) {
	recs, _ := datagen.GenerateRecords(datagen.TextConfig{Seed: 1, Records: 10})
	in := &motif.Dataset{Records: recs}
	parts := splitDataset(in, 3)
	if len(parts) != 3 {
		t.Fatalf("expected 3 parts, got %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p.Records)
	}
	if total != 10 {
		t.Fatalf("split should conserve records, got %d", total)
	}
	merged := mergeDatasets(parts)
	if len(merged.Records) != 10 {
		t.Fatal("merge should restore all records")
	}
	// Unsplittable data sets come back whole.
	g, _ := datagen.GeneratePowerLawGraph(datagen.GraphConfig{Seed: 1, Vertices: 10, AvgDegree: 2})
	gparts := splitDataset(&motif.Dataset{Graph: g}, 4)
	if len(gparts) != 1 {
		t.Fatalf("graph data set should not be split, got %d parts", len(gparts))
	}
	// Keys split carries values along.
	kv := &motif.Dataset{Keys: []int64{1, 2, 3, 4}, Values: []int64{10, 20, 30, 40}}
	kparts := splitDataset(kv, 2)
	if len(kparts) != 2 || len(kparts[0].Values) != 2 {
		t.Fatal("key/value split should carry values")
	}
	if len(splitDataset(in, 1)) != 1 {
		t.Fatal("n=1 should not split")
	}
	if mergeDatasets([]*motif.Dataset{nil, {Keys: []int64{1}}}).Keys[0] != 1 {
		t.Fatal("merge should skip nil parts")
	}
}

// Property: Apply with the identity setting returns the original parameters.
func TestApplyIdentityProperty(t *testing.T) {
	f := func(data, chunk uint32, tasks, batch uint8) bool {
		p := Params{DataSize: uint64(data) + 1, ChunkSize: uint64(chunk), NumTasks: int(tasks), Weight: 1, BatchSize: int(batch)}
		return p.Apply(DefaultSetting()) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting any key slice conserves all keys, for any split count.
func TestSplitConservationProperty(t *testing.T) {
	f := func(keys []int64, n uint8) bool {
		in := &motif.Dataset{Keys: keys}
		parts := splitDataset(in, int(n%16)+1)
		total := 0
		for _, p := range parts {
			total += len(p.Keys)
		}
		return total == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnderInvariantChecks enables the perf invariant debug flag and
// checks a real proxy execution passes the per-measurement pass (hit+miss
// conservation, extrapolation clamp bounds) — the campaign-mode discipline
// must hold on the engine's own output, not just on restored snapshots.
func TestRunUnderInvariantChecks(t *testing.T) {
	prev := perf.InvariantChecksEnabled()
	perf.SetInvariantChecks(true)
	defer perf.SetInvariantChecks(prev)
	cluster := singleNodeCluster()
	if _, err := Run(cluster, testBenchmark(), nil); err != nil {
		t.Fatal(err)
	}
	pool := sim.NewClusterPool(cluster)
	if _, err := RunBatch(pool, testBenchmark(), []Setting{nil, {"dataSize": 1.5}}, nil); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"testing"

	"dataproxy/internal/sim"
)

// The batched==sequential equivalence property lives in
// batch_property_test.go (package core_test) on the shared testutil
// builders; the tests here stay in-package because they reach the
// unexported trace-group key.

// TestRunBatchSharesTraces checks the compute-sharing contract directly: a
// batch of settings differing only in the pure extrapolation parameters
// collapses to one trace group (one simulation), while a shape-changing
// parameter forces its own group.
func TestRunBatchSharesTraces(t *testing.T) {
	b := testBenchmark()
	shared := []Setting{
		nil,
		{"weight": 2},
		{"dataSize": 2},
		{"dataSize": 0.5, "weight": 1.4},
	}
	keys := map[string]bool{}
	for _, s := range shared {
		if s == nil {
			s = DefaultSetting()
		}
		keys[b.traceKey(s)] = true
	}
	if len(keys) != 1 {
		t.Fatalf("extrapolation-only settings span %d trace groups, want 1", len(keys))
	}
	if k1, k2 := b.traceKey(DefaultSetting()), b.traceKey(Setting{"chunkSize": 2}); k1 == k2 {
		t.Fatal("chunkSize change must not share a trace group")
	}
	if k1, k2 := b.traceKey(DefaultSetting()), b.traceKey(Setting{"numTasks": 2}); k1 == k2 {
		t.Fatal("numTasks change must not share a trace group")
	}
	// A dataSize factor small enough to clamp the sample volume changes the
	// generated input and therefore the trace.
	tiny := Setting{"dataSize": float64(b.SampleBytes) / float64(b.Base.DataSize) / 2}
	if k1, k2 := b.traceKey(DefaultSetting()), b.traceKey(tiny); k1 == k2 {
		t.Fatal("sample-clamping dataSize change must not share a trace group")
	}
}

// TestRunBatchRejectsInvalidSetting mirrors Run's validation for batches.
func TestRunBatchRejectsInvalidSetting(t *testing.T) {
	b := testBenchmark()
	pool := sim.NewClusterPool(singleNodeCluster())
	if _, err := RunBatch(pool, b, []Setting{nil, {"bogus": 2}}, nil); err == nil {
		t.Fatal("invalid setting in batch should be rejected")
	}
	bad := testBenchmark()
	bad.Edges[0].Impl = "nope"
	if _, err := RunBatch(pool, bad, []Setting{nil}, nil); err == nil {
		t.Fatal("invalid benchmark should be rejected")
	}
}

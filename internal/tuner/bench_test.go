package tuner

import (
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// BenchmarkTune compares the sequential and parallel auto-tuning pipeline on
// the same proxy benchmark and target.  The two variants produce bit-identical
// Results (see TestTuneParallelMatchesSequential); the benchmark measures the
// host wall-clock of the impact-analysis fan-out and memoized feedback loop,
// so on a multi-core host `parallel` shows the speedup of the tuning
// pipeline.  Tracked by `make bench-json` alongside the cache-engine hot
// path.
func BenchmarkTune(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchmarkTune(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchmarkTune(b, 0) })
}

// sweepSettings is a representative tuner sweep: an impact-analysis grid over
// numTasks and chunkSize (which change the trace key) crossed with dataSize
// and weight refinements (which only extrapolate it) — 36 settings falling
// into 9 trace groups.  No chunk factor here chunks a share of the small
// benchmark, so the 9 trace keys cost 3 simulations, one per numTasks
// factor.
func sweepSettings() []core.Setting {
	var settings []core.Setting
	for _, nt := range []float64{0.5, 1, 2} {
		for _, cs := range []float64{0.5, 1, 2} {
			for _, ds := range []float64{0.7, 1.4} {
				for _, w := range []float64{0.8, 1.2} {
					settings = append(settings, core.Setting{"numTasks": nt, "chunkSize": cs, "dataSize": ds, "weight": w})
				}
			}
		}
	}
	return settings
}

// BenchmarkTuneBatched measures the batched evaluation engine head to head:
// the same 36-setting sweep evaluated as `oneatatime`, one core.Run (a
// one-lane batch) per setting, versus as one lockstep core.RunBatch.  The
// batch groups settings by trace key into 9 groups and simulates 3 traces,
// one per shape, accounting the other chunkSize groups from them — every
// input record generated and every weight cache line streamed a single time
// for all lanes — and carries the per-setting extrapolations in one ledger
// per lane, so `batched` must land well above the 3x throughput target over
// `oneatatime` at bit-identical results (the lane-invariance and replay
// properties, TestRunBatchMatchesSequential and
// TestRunBatchReplayMatchesFreshRuns in internal/core).  Tracked by `make
// bench-json`.
func BenchmarkTuneBatched(b *testing.B) {
	proxyB := testutil.SmallBenchmark()
	settings := sweepSettings()
	b.Run("oneatatime", func(b *testing.B) {
		pool := sim.NewClusterPool(testutil.WestmereCluster())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range settings {
				c := pool.Get()
				if _, err := core.Run(c, proxyB, s); err != nil {
					b.Fatal(err)
				}
				pool.Put(c)
			}
		}
		b.ReportMetric(float64(len(settings)), "settings")
	})
	b.Run("batched", func(b *testing.B) {
		pool := sim.NewClusterPool(testutil.WestmereCluster())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunBatch(pool, proxyB, settings, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(settings)), "settings")
	})
}

func benchmarkTune(b *testing.B, workers int) {
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)

	proxyB := testutil.SmallBenchmark()
	rep, err := core.Run(testutil.WestmereCluster(), proxyB, core.Setting{"numTasks": 0.25})
	if err != nil {
		b.Fatal(err)
	}
	target := rep.Metrics
	opts := Options{MaxIterations: 4, Threshold: 0.05}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TuneWithPool(sim.NewClusterPool(testutil.WestmereCluster()), proxyB, target, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Evaluations), "simulations")
			b.ReportMetric(res.Report.Average()*100, "avg-accuracy-%")
		}
	}
}

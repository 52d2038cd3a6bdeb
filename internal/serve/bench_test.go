package serve

import (
	"context"
	"sync"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/tuner"
)

// BenchmarkServeRun measures the in-process scheduler round-trip of a
// repeated /v1/run request: key construction against the prototype's cached
// fingerprint, the byte-wise cache lookup, and the metric copy out.  This
// is the serving layer's steady state — clients re-query known settings far
// more often than they invent new ones — and it must stay allocation-free,
// which the bench gate enforces via the committed baseline.
func BenchmarkServeRun(b *testing.B) {
	sc := coalesceScheduler(b, 2, 1)
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		b.Fatal(err)
	}
	settings := []core.Setting{core.DefaultSetting()}
	metrics := make([]perf.Metrics, 1)
	coalesced := make([]bool, 1)
	ctx := context.Background()

	// First round-trip executes the simulation and fills the cache.
	if err := sc.run(ctx, "westmere", bench, settings, metrics, coalesced); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.run(ctx, "westmere", bench, settings, metrics, coalesced); err != nil {
			b.Fatal(err)
		}
		if !coalesced[0] || metrics[0].Runtime == 0 {
			b.Fatal("steady-state request should be served from the cache")
		}
	}
}

// BenchmarkServeRunBatch measures the scheduler round-trip of a repeated
// batched /v1/run: four warm settings peeked byte-wise against the cache and
// copied into caller-provided result slices.  Like the single-request steady
// state this must stay allocation-free — the dst-slice shape of run exists
// precisely so an all-warm request touches no heap — and the bench gate
// enforces 0 allocs/op via the committed baseline.
func BenchmarkServeRunBatch(b *testing.B) {
	sc := coalesceScheduler(b, 2, 1)
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		b.Fatal(err)
	}
	settings := []core.Setting{
		core.DefaultSetting(),
		{"dataSize": 0.5},
		{"dataSize": 2},
		{"numTasks": 2},
	}
	metrics := make([]perf.Metrics, len(settings))
	coalesced := make([]bool, len(settings))
	ctx := context.Background()

	// First round-trip executes the cold sweep and fills the cache.
	if err := sc.run(ctx, "westmere", bench, settings, metrics, coalesced); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.run(ctx, "westmere", bench, settings, metrics, coalesced); err != nil {
			b.Fatal(err)
		}
		if !coalesced[0] || metrics[0].Runtime == 0 {
			b.Fatal("steady-state batch should be served entirely from the cache")
		}
	}
}

// benchColdSettings is the concurrent-cold workload: eight settings spanning
// exactly two trace groups (distinct chunkSize factors); the dataSize-only
// variants within a group share its execution trace, so a coalesced sweep
// performs two simulations where per-request execution performs eight.
func benchColdSettings() []core.Setting {
	out := make([]core.Setting, 0, 8)
	for _, chunk := range []float64{1, 2} {
		for _, data := range []float64{1.1, 1.2, 1.3, 1.4} {
			out = append(out, core.Setting{"chunkSize": chunk, "dataSize": data})
		}
	}
	return out
}

// BenchmarkServeConcurrentCold measures the tentpole win of cross-request
// micro-batching: eight concurrent cold /v1/run requests whose settings span
// two trace groups, served request-per-sweep (solo: one-lane windows, eight
// simulations) versus through one collection window (coalesced: the lane cap
// seals at eight lanes, two simulations).  Each iteration starts
// from a fresh result cache so every request is genuinely cold.  The bench
// gate tracks both; coalesced must sustain at least twice solo's
// throughput.
func BenchmarkServeConcurrentCold(b *testing.B) {
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		b.Fatal(err)
	}
	settings := benchColdSettings()
	burst := func(b *testing.B, sc *scheduler) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.memo = tuner.NewBoundedMemo(1 << 20)
			var wg sync.WaitGroup
			for _, s := range settings {
				wg.Add(1)
				go func(s core.Setting) {
					defer wg.Done()
					if _, _, err := runOne(ctx, sc, bench, s); err != nil {
						b.Error(err)
					}
				}(s)
			}
			wg.Wait()
		}
	}
	b.Run("solo", func(b *testing.B) {
		burst(b, coalesceScheduler(b, 8, 1))
	})
	b.Run("coalesced", func(b *testing.B) {
		burst(b, coalesceScheduler(b, 8, len(settings)))
	})
}

package tuner

import (
	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// MemoEvaluator is the single evaluation entry point of the proxy library:
// it binds a proxy benchmark to a cluster pool and a measurement memo, and
// the tuner's impact and feedback stages, the experiments suite, the
// campaign harness and the serve scheduler all measure settings through it.
// Every setting is keyed individually in the memo (MemoKey discipline:
// benchmark, cluster fingerprint, canonical setting), so warm settings of a
// batch are answered from the cache while the cold remainder executes as
// one trace-sharing core.RunBatch sweep on pooled clusters.  Results are
// bit-identical to one-at-a-time core.Run calls regardless of batch size or
// host worker count.  Safe for concurrent use.
//
// The evaluator owns one core.TraceStore for its whole life, so it never
// simulates the same trace twice: a cold setting whose trace an earlier
// sweep of this evaluator recorded is accounted from that trace, and one
// that differs from a recorded trace only after the edges no task count
// splits resumes that trace there.  The store lives exactly as long as the
// evaluator — one tune, one serve sweep, one campaign step — and is never
// attached to the memo or the pool, which both outlive a single operation.
type MemoEvaluator struct {
	pool   *sim.ClusterPool
	b      *core.Benchmark
	memo   *Memo
	traces *core.TraceStore

	// coldHook, when set, runs at the start of every cold sweep — inside the
	// memo claims, so an error or panic it raises is cached per entry like
	// any measurement failure.  The serving layer injects its fault site
	// here.
	coldHook func() error
}

// NewEvaluator builds a MemoEvaluator.  A nil memo gets a private one, which
// still deduplicates repeated settings within the evaluator's lifetime.
func NewEvaluator(pool *sim.ClusterPool, b *core.Benchmark, memo *Memo) *MemoEvaluator {
	if memo == nil {
		memo = NewMemo()
	}
	return &MemoEvaluator{pool: pool, b: b, memo: memo, traces: &core.TraceStore{}}
}

// WithColdHook installs a hook that runs at the start of every cold sweep
// this evaluator executes — inside the memo's claims, so an error (or
// panic) raised by the hook lands as a cached per-entry failure exactly
// like a failing measurement would.  It returns the evaluator for chaining;
// a nil hook clears it.  The serving layer uses it to place its
// fault-injection site where injected failures exercise the same completion
// paths real ones take.
func (ev *MemoEvaluator) WithColdHook(hook func() error) *MemoEvaluator {
	ev.coldHook = hook
	return ev
}

// TraceGroups returns how many trace groups this evaluator's sweeps
// simulated from the input stage and how many resumed a recorded trace
// (core.TraceStore.Groups); groups accounted from a recorded trace whole
// count in neither.
func (ev *MemoEvaluator) TraceGroups() (simulated, resumed int) { return ev.traces.Groups() }

// Evaluate measures the bound benchmark under a batch of settings and
// returns one metric vector per setting, in input order, plus the
// per-setting fresh flags: fresh[i] is true when setting i's simulation was
// executed by this call rather than answered from the memo (or coalesced
// onto another in-flight caller).  The error is the first per-setting error
// in input order.
func (ev *MemoEvaluator) Evaluate(settings []core.Setting) ([]perf.Metrics, []bool, error) {
	ms, fresh, errs := ev.EvaluateLanes(settings)
	for _, err := range errs {
		if err != nil {
			return ms, fresh, err
		}
	}
	return ms, fresh, nil
}

// EvaluateLanes is Evaluate with per-setting error reporting
// (Memo.MeasureLanes semantics): errs[i] carries setting i's own cached
// error instead of the whole batch collapsing onto the first failure.  The
// serve scheduler's cross-request coalescer uses it to fan one merged sweep
// back to many waiting requests, failing only the lanes that failed.
func (ev *MemoEvaluator) EvaluateLanes(settings []core.Setting) ([]perf.Metrics, []bool, []error) {
	keys := make([]string, len(settings))
	proto := ev.pool.Proto()
	for i, s := range settings {
		keys[i] = MemoKey(proto, ev.b, s)
	}
	return ev.memo.MeasureLanes(keys, func(cold []int) ([]perf.Metrics, error) {
		if ev.coldHook != nil {
			if err := ev.coldHook(); err != nil {
				return nil, err
			}
		}
		coldSettings := make([]core.Setting, len(cold))
		for j, i := range cold {
			coldSettings[j] = settings[i]
		}
		reps, err := core.RunBatch(ev.pool, ev.b, coldSettings, ev.traces)
		if err != nil {
			return nil, err
		}
		out := make([]perf.Metrics, len(reps))
		for j, rep := range reps {
			out[j] = rep.Metrics
		}
		return out, nil
	})
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
)

// ErrOverloaded is returned by the scheduler when the admission queue is
// full; the HTTP layer translates it into 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: admission queue full")

// scheduler executes proxy-benchmark runs for the HTTP layer under an
// admission policy: at most maxInFlight simulations execute concurrently, at
// most queueDepth admitted requests wait for a slot, and everything beyond
// that is shed with ErrOverloaded instead of oversubscribing the host.  The
// simulations themselves fan out on the shared internal/parallel helper pool
// (inside core.Run), so the scheduler adds no goroutines of its own: every
// execution runs on the goroutine of the request that admitted it.
//
// Identical requests coalesce through a singleflight result cache — a
// tuner.Memo keyed with tuner.MemoKey, i.e. the same bit-exact
// (benchmark, core.Setting.Canonical(), cluster/arch) key the auto-tuner
// memoizes on — so a repeated /v1/run never spends an admission slot or a
// simulation, and tune jobs sharing the memo reuse the very same entries.
//
// Non-identical cold requests coalesce too, when window > 0: concurrent
// single-run requests for the same (architecture, benchmark) gather in a
// bounded collection window and execute as ONE lockstep sweep on one
// execution slot, with per-lane results fanned back to each waiting request
// (see coalesce.go).  Admission is therefore split in two: admit/unadmit
// account every contributing request individually (so overload sheds each
// request on its own), while acquireSlot/releaseSlot meter actual
// executions — one slot per sweep, however many requests ride it.
type scheduler struct {
	maxInFlight int
	queueDepth  int

	// admitted counts requests holding or waiting for a slot; slots holds
	// one token per executing simulation.
	admitted atomic.Int64
	slots    chan struct{}

	// window bounds how long a cold request may wait for cross-request
	// companions before its batch drains (0 disables cross-request
	// coalescing); maxLanes caps the batch size (a full window drains
	// immediately).  idleDrain, default true, drains a lone request's window
	// with no wait at all — tests and benchmarks clear it to make batch
	// composition deterministic.
	window    time.Duration
	maxLanes  int
	idleDrain bool

	// cmu guards windows, the open collection window per
	// architecture|benchmark group.  Sealed windows leave the map, so a
	// window found in it always accepts another lane.
	cmu     sync.Mutex
	windows map[string]*cwindow

	// memo is the current result cache.  The server runs indefinitely and
	// clients choose the settings (arbitrary float factors), so the cache
	// cannot grow without bound: once it exceeds maxCacheEntries it is
	// swapped for a fresh one.  In-flight measurements keep using the memo
	// they started on — entries are self-contained, so a swap only costs
	// future coalescing, never correctness.
	memo            atomic.Pointer[tuner.Memo]
	maxCacheEntries int
	// pools maps the architecture short name to a pool over the prototype
	// single-node cluster (the paper runs each proxy benchmark on a single
	// slave node).  The pool's Proto is the cluster every cache key is
	// fingerprinted against, and its reset clones spare a steady stream of
	// requests one cluster allocation per execution.
	pools map[string]*sim.ClusterPool

	// keyBufs recycles the scratch buffers cache keys are built in, so a
	// cache-answered request allocates nothing at all.
	keyBufs sync.Pool

	// evalFn measures a batch of settings through the shared memo — the
	// tuner.MemoEvaluator entry point every cold execution funnels through.
	// Tests replace it to control timing and results.  The returned fresh
	// flags report which settings were simulated (vs answered from memo
	// entries or batch duplicates) and errs carries each lane's own cached
	// error, exactly as EvaluateLanes does.
	evalFn func(pool *sim.ClusterPool, b *core.Benchmark, memo *tuner.Memo, settings []core.Setting) ([]perf.Metrics, []bool, []error)

	// draining sheds every new admission with ErrOverloaded once the server
	// begins a graceful drain; warm cache answers stay available (they cost
	// no slot) so polling clients are not cut off mid-shutdown.
	draining atomic.Bool

	// onEvict, when set, receives the outgoing memo of each cache swap before
	// new requests stop coalescing on it; the state manager archives its
	// completed entries so a warm restart still benefits from them.
	onEvict func(old *tuner.Memo)

	executed  atomic.Int64 // simulations actually performed (distinct trace groups)
	coalesced atomic.Int64 // requests served from the result cache / singleflight
	shed      atomic.Int64 // requests rejected with ErrOverloaded
	evictions atomic.Int64 // cache swaps forced by MaxCacheEntries

	windowBatches atomic.Int64 // coalesced sweeps executed from collection windows
	laneHist      *histogram   // lanes per coalesced sweep
	waitHist      *histogram   // seconds from window open to sweep start
}

func newScheduler(maxInFlight, queueDepth, maxCacheEntries int, window time.Duration, maxLanes int, protos map[string]*sim.Cluster) *scheduler {
	pools := make(map[string]*sim.ClusterPool, len(protos))
	for name, proto := range protos {
		pools[name] = sim.NewClusterPool(proto)
	}
	if maxLanes < 1 {
		maxLanes = 1
	}
	sc := &scheduler{
		maxInFlight:     maxInFlight,
		queueDepth:      queueDepth,
		slots:           make(chan struct{}, maxInFlight),
		window:          window,
		maxLanes:        maxLanes,
		idleDrain:       true,
		windows:         make(map[string]*cwindow),
		maxCacheEntries: maxCacheEntries,
		pools:           pools,
		laneHist:        newHistogram(laneBuckets),
		waitHist:        newHistogram(waitBuckets),
		evalFn: func(pool *sim.ClusterPool, b *core.Benchmark, memo *tuner.Memo, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
			// The fault site fires inside the evaluator's cold hook — within
			// the memo claims — so an injected error or panic is cached per
			// lane and completes waiters exactly like a real failure.
			return tuner.NewEvaluator(pool, b, memo).
				WithColdHook(func() error { return faultinject.Fire("serve.evaluate") }).
				EvaluateLanes(settings)
		},
	}
	sc.keyBufs.New = func() any { b := make([]byte, 0, 512); return &b }
	sc.memo.Store(tuner.NewMemo())
	return sc
}

// currentMemo returns the live result cache; tune jobs share it so their
// evaluations and /v1/run requests coalesce with each other.
func (sc *scheduler) currentMemo() *tuner.Memo { return sc.memo.Load() }

// maybeEvict swaps in a fresh memo when the cache the caller just used has
// outgrown the cap.  The compare-and-swap makes concurrent callers evict at
// most once per full cache: only the winner counts the eviction and hands
// the outgoing memo to onEvict, so the archive never sees the same
// generation twice and losers do not re-evict the fresh memo.
func (sc *scheduler) maybeEvict(used *tuner.Memo) {
	if used.Size() > sc.maxCacheEntries && sc.memo.CompareAndSwap(used, tuner.NewMemo()) {
		sc.evictions.Add(1)
		if sc.onEvict != nil {
			sc.onEvict(used)
		}
	}
}

// pool returns the cluster pool for an architecture short name; tune jobs
// borrow it so they recycle the same clusters as /v1/run executions.
func (sc *scheduler) pool(archName string) (*sim.ClusterPool, error) {
	p := sc.pools[archName]
	if p == nil {
		return nil, fmt.Errorf("serve: unknown architecture %q", archName)
	}
	return p, nil
}

// run executes benchmark b under setting s on the named architecture,
// returning the metric vector and whether the result was coalesced with a
// previous or concurrent identical request.  Completed results are answered
// straight from the cache with no admission — and with zero allocations:
// the key is built into a pooled scratch buffer against the prototype's
// cached fingerprint and looked up byte-wise.  A cache miss materialises
// the key string, passes admission, and — when cross-request coalescing is
// enabled — joins the open collection window of its (architecture,
// benchmark) group to ride one lockstep sweep with concurrent cold
// requests; with coalescing disabled it executes alone on a pooled cluster
// (or blocks on an in-flight twin).
func (sc *scheduler) run(ctx context.Context, archName string, b *core.Benchmark, s core.Setting) (perf.Metrics, bool, error) {
	pool, err := sc.pool(archName)
	if err != nil {
		return perf.Metrics{}, false, err
	}
	buf := sc.keyBufs.Get().(*[]byte)
	keyBytes := tuner.AppendMemoKey((*buf)[:0], pool.Proto(), b, s)
	memo := sc.currentMemo()
	if m, ok, err := memo.PeekBytes(keyBytes); ok {
		*buf = keyBytes
		sc.keyBufs.Put(buf)
		sc.coalesced.Add(1)
		return m, true, err
	}
	*buf = keyBytes
	sc.keyBufs.Put(buf)
	if err := sc.admit(); err != nil {
		return perf.Metrics{}, false, err
	}
	defer sc.unadmit()
	if sc.window > 0 {
		return sc.runCoalesced(ctx, archName, b, memo, s)
	}
	if err := sc.acquireSlot(ctx); err != nil {
		return perf.Metrics{}, false, err
	}
	defer sc.releaseSlot()
	settings := []core.Setting{s}
	ms, fresh, errs := sc.evalFn(pool, b, memo, settings)
	if len(ms) != 1 || len(fresh) != 1 || len(errs) != 1 {
		return perf.Metrics{}, false, fmt.Errorf("serve: evaluator returned %d results for 1 setting", len(ms))
	}
	sc.recordSweep(b, memo, settings, fresh)
	return ms[0], !fresh[0], errs[0]
}

// runBatch executes benchmark b under a batch of settings on the named
// architecture, writing the per-setting metric vector and coalesced flag into
// the caller-provided metrics and coalesced slices (both len(settings)), in
// request order.  The dst-slice shape keeps an all-warm batch — every setting
// already completed in the cache — fully allocation-free: it is answered from
// pooled key buffers with no admission and no new simulation.
//
// A batch with any cold setting passes admission ONCE, as a single unit:
// either the whole cold remainder is admitted on one slot, or — when the
// admission queue is full — the ENTIRE batch is shed with ErrOverloaded and
// no partial results are produced.  Admitted cold settings execute as one
// trace-sharing evaluation through the shared memo, so each is keyed
// individually for future requests (and duplicates within the batch simulate
// once).  A cached failure on any setting fails the whole batch with that
// error, matching the single-run path where cached errors are replayed.
// Batches are already batch-shaped and do not join collection windows.
func (sc *scheduler) runBatch(ctx context.Context, archName string, b *core.Benchmark, settings []core.Setting, metrics []perf.Metrics, coalesced []bool) error {
	pool, err := sc.pool(archName)
	if err != nil {
		return err
	}
	memo := sc.currentMemo()
	buf := sc.keyBufs.Get().(*[]byte)
	keyBytes := (*buf)[:0]
	var coldIdx []int
	for i, s := range settings {
		keyBytes = tuner.AppendMemoKey(keyBytes[:0], pool.Proto(), b, s)
		m, ok, err := memo.PeekBytes(keyBytes)
		if ok && err != nil {
			*buf = keyBytes
			sc.keyBufs.Put(buf)
			return err
		}
		if ok {
			metrics[i] = m
			coalesced[i] = true
			continue
		}
		coldIdx = append(coldIdx, i)
	}
	*buf = keyBytes
	sc.keyBufs.Put(buf)
	if len(coldIdx) == 0 {
		sc.coalesced.Add(int64(len(settings)))
		return nil
	}
	coldSettings := make([]core.Setting, len(coldIdx))
	for j, i := range coldIdx {
		coldSettings[j] = settings[i]
	}
	if err := sc.admit(); err != nil {
		return err
	}
	defer sc.unadmit()
	if err := sc.acquireSlot(ctx); err != nil {
		return err
	}
	defer sc.releaseSlot()
	ms, fresh, errs := sc.evalFn(pool, b, memo, coldSettings)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if len(ms) != len(coldSettings) || len(fresh) != len(coldSettings) {
		return fmt.Errorf("serve: evaluator returned %d results for %d settings", len(ms), len(coldSettings))
	}
	for j, i := range coldIdx {
		metrics[i] = ms[j]
		coalesced[i] = !fresh[j]
	}
	sc.coalesced.Add(int64(len(settings) - len(coldIdx)))
	sc.recordSweep(b, memo, coldSettings, fresh)
	return nil
}

// recordSweep accounts one finished sweep over settings with the fresh
// flags evalFn returned.  Fresh lanes count in executed once per distinct
// trace group — the simulations core.RunBatch actually performed — every
// other lane counts in coalesced, and a sweep that simulated anything may
// have pushed the cache it used past its cap.  The single-fresh fast path
// avoids the map (and the key rendering) on the overwhelmingly common
// one-cold-setting request.
func (sc *scheduler) recordSweep(b *core.Benchmark, memo *tuner.Memo, settings []core.Setting, fresh []bool) {
	n := 0
	for _, f := range fresh {
		if f {
			n++
		}
	}
	sc.coalesced.Add(int64(len(settings) - n))
	if n == 0 {
		return
	}
	groups := 1
	if n > 1 {
		keys := make(map[string]struct{}, n)
		for i, f := range fresh {
			if f {
				keys[b.TraceKey(settings[i])] = struct{}{}
			}
		}
		groups = len(keys)
	}
	sc.executed.Add(int64(groups))
	sc.maybeEvict(memo)
}

// admit joins the admission queue: it reserves one of the
// maxInFlight+queueDepth accounting places or sheds the request with
// ErrOverloaded (queue full, or the server is draining).  Every request is
// admitted individually — including each contributor of a coalesced sweep —
// so overload sheds requests one by one even when their executions merge.
func (sc *scheduler) admit() error {
	if sc.draining.Load() {
		sc.shed.Add(1)
		return ErrOverloaded
	}
	if sc.admitted.Add(1) > int64(sc.maxInFlight+sc.queueDepth) {
		sc.admitted.Add(-1)
		sc.shed.Add(1)
		return ErrOverloaded
	}
	return nil
}

// unadmit returns the accounting place taken by admit.
func (sc *scheduler) unadmit() { sc.admitted.Add(-1) }

// acquireSlot blocks until an execution slot is free or ctx ends.  One slot
// covers one sweep, however many admitted requests coalesced onto it.
func (sc *scheduler) acquireSlot(ctx context.Context) error {
	select {
	case sc.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseSlot frees the execution slot taken by acquireSlot.
func (sc *scheduler) releaseSlot() { <-sc.slots }

// inFlight returns the number of requests currently holding or waiting for
// an execution slot.
func (sc *scheduler) inFlight() int64 { return sc.admitted.Load() }

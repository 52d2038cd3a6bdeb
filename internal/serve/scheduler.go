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
// The server runs indefinitely and clients choose the settings (arbitrary
// float factors), so the memo is bounded: it evicts completed entries one
// at a time, and the scheduler keeps that one memo for its whole life.
//
// Every cold request goes through one path: the cold settings of concurrent
// requests for the same (architecture, benchmark) gather in a bounded
// collection window and execute as ONE lockstep sweep on one execution slot,
// with per-lane results fanned back to each waiting request (see
// coalesce.go).  Admission is therefore split in two: admit/unadmit account
// every contributing request individually (so overload sheds each request on
// its own), while acquireSlot/releaseSlot meter actual executions — one slot
// per sweep, however many requests ride it.
type scheduler struct {
	maxInFlight int
	queueDepth  int

	// admitted counts requests holding or waiting for a slot; slots holds
	// one token per executing simulation.
	admitted atomic.Int64
	slots    chan struct{}

	// window bounds how long a cold single run may wait for cross-request
	// companions before its window drains; maxLanes (coalesceLanes) caps
	// the lanes single runs gather (a full window drains immediately).
	// idleDrain, default true, drains a lone request's window with no wait
	// at all.  Tests and benchmarks clear idleDrain and set maxLanes to
	// compose sweeps deterministically; one lane is one request per sweep.
	window    time.Duration
	maxLanes  int
	idleDrain bool

	// cmu guards windows, the open collection window per
	// architecture|benchmark group.  Sealed windows leave the map, so a
	// window found in it always accepts another lane.
	cmu     sync.Mutex
	windows map[string]*cwindow

	// memo is the result cache, bounded by the configured entry cap.
	memo *tuner.Memo
	// pools maps the architecture short name to a pool over the prototype
	// single-node cluster (the paper runs each proxy benchmark on a single
	// slave node).  The pool's Proto is the cluster every cache key is
	// fingerprinted against, and its reset clones spare a steady stream of
	// requests one cluster allocation per execution.
	pools map[string]*sim.ClusterPool

	// keyBufs recycles the scratch buffers cache keys are built in, so a
	// cache-answered request allocates nothing at all.
	keyBufs sync.Pool

	// evalFn measures a batch of settings through memo — the
	// tuner.MemoEvaluator entry point every cold execution funnels through.
	// Tests replace it to control timing and results.  The returned fresh
	// flags report which settings were simulated (vs answered from memo
	// entries or batch duplicates) and errs carries each lane's own cached
	// error, exactly as EvaluateLanes does.
	evalFn func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error)

	// draining sheds every new admission with ErrOverloaded once the server
	// begins a graceful drain; warm cache answers stay available (they cost
	// no slot) so polling clients are not cut off mid-shutdown.
	draining atomic.Bool

	executed  atomic.Int64 // distinct trace keys evaluated cold, per sweep
	coalesced atomic.Int64 // settings served from the result cache / singleflight
	shed      atomic.Int64 // requests rejected with ErrOverloaded

	// simulatedGroups and resumedGroups count the trace groups the sweeps'
	// evaluators simulated from the input stage and resumed at a recorded
	// trace's resume point (core.TraceStore.Groups).
	simulatedGroups atomic.Int64
	resumedGroups   atomic.Int64

	windowBatches atomic.Int64 // cold sweeps executed, one per sealed window
	laneHist      *histogram   // lanes per sweep
	waitHist      *histogram   // seconds from window open to sweep start
}

// coalesceLanes is the lane cap at which single runs seal their window.
const coalesceLanes = 16

func newScheduler(maxInFlight, queueDepth, maxCacheEntries int, window time.Duration, protos map[string]*sim.Cluster) *scheduler {
	pools := make(map[string]*sim.ClusterPool, len(protos))
	for name, proto := range protos {
		pools[name] = sim.NewClusterPool(proto)
	}
	sc := &scheduler{
		maxInFlight: maxInFlight,
		queueDepth:  queueDepth,
		slots:       make(chan struct{}, maxInFlight),
		window:      window,
		maxLanes:    coalesceLanes,
		idleDrain:   true,
		windows:     make(map[string]*cwindow),
		memo:        tuner.NewBoundedMemo(maxCacheEntries),
		pools:       pools,
		laneHist:    newHistogram(laneBuckets),
		waitHist:    newHistogram(waitBuckets),
	}
	sc.evalFn = func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
		// The fault site fires inside the evaluator's cold hook — within the
		// memo claims — so an injected error or panic is cached per lane and
		// completes waiters exactly like a real failure.
		ev := tuner.NewEvaluator(pool, b, sc.memo).
			WithColdHook(func() error { return faultinject.Fire("serve.evaluate") })
		defer func() {
			simulated, resumed := ev.TraceGroups()
			sc.simulatedGroups.Add(int64(simulated))
			sc.resumedGroups.Add(int64(resumed))
		}()
		return ev.EvaluateLanes(settings)
	}
	sc.keyBufs.New = func() any { b := make([]byte, 0, 512); return &b }
	return sc
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

// run answers one /v1/run request: benchmark b under settings — one for a
// single run, n for a batch — on the named architecture, writing each
// setting's metric vector and coalesced flag into the caller's metrics and
// coalesced slices (both len(settings)), in request order.  Settings already
// completed in the cache are answered with no admission, and an all-warm
// request allocates nothing: each key is built into a pooled scratch buffer
// against the prototype's cached fingerprint and looked up byte-wise.  A
// cached failure on any setting fails the request with that error.
//
// A request with any cold setting passes admission ONCE, as a unit: either
// it is admitted, or — when the admission queue is full — it is shed whole
// with ErrOverloaded and produces no partial results.  Its cold settings
// then ride the collection window of their (architecture, benchmark) group
// (runCold), so each is keyed individually for future requests, and
// duplicates — within the request or across the window — simulate once.
func (sc *scheduler) run(ctx context.Context, archName string, b *core.Benchmark, settings []core.Setting, metrics []perf.Metrics, coalesced []bool) error {
	pool, err := sc.pool(archName)
	if err != nil {
		return err
	}
	buf := sc.keyBufs.Get().(*[]byte)
	keyBytes := (*buf)[:0]
	var cold []int
	var cachedErr error
	for i, s := range settings {
		keyBytes = tuner.AppendMemoKey(keyBytes[:0], pool.Proto(), b, s)
		m, ok, err := sc.memo.PeekBytes(keyBytes)
		if !ok {
			cold = append(cold, i)
			continue
		}
		metrics[i], coalesced[i] = m, true
		if cachedErr = err; err != nil {
			break
		}
	}
	*buf = keyBytes
	sc.keyBufs.Put(buf)
	if cachedErr != nil {
		return cachedErr
	}
	if len(cold) > 0 {
		if err := sc.admit(); err != nil {
			return err
		}
		defer sc.unadmit()
		if err := sc.runCold(ctx, archName, b, settings, cold, metrics, coalesced); err != nil {
			return err
		}
	}
	sc.coalesced.Add(int64(len(settings) - len(cold)))
	return nil
}

// evaluate runs one cold sweep over settings and accounts it; every sealed
// window goes through it.  It normalises every failure mode into per-lane
// errors of the right length: a panicking sweep is recovered here (the memo
// has already cached the panic on each claimed entry, so twins replay it)
// and fails every lane without taking the serving goroutine down, and a
// malformed evaluator result fails them all too.  Such a sweep has no fresh
// flags to account, so it adds to neither run counter: none of its lanes
// was answered from the cache or from another request's work.
func (sc *scheduler) evaluate(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) (metrics []perf.Metrics, fresh []bool, errs []error) {
	n := len(settings)
	failed := false
	fail := func(err error) {
		failed = true
		metrics, fresh, errs = make([]perf.Metrics, n), make([]bool, n), make([]error, n)
		for i := range errs {
			errs[i] = err
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("serve: sweep panicked: %v", r))
		}
		if !failed {
			sc.recordSweep(b, settings, fresh)
		}
	}()
	metrics, fresh, errs = sc.evalFn(pool, b, settings)
	if len(metrics) != n || len(fresh) != n || len(errs) != n {
		fail(fmt.Errorf("serve: evaluator returned %d results for %d settings", len(metrics), n))
	}
	return metrics, fresh, errs
}

// recordSweep accounts one finished sweep over settings with the fresh
// flags evalFn returned.  Fresh lanes count in executed once per distinct
// trace key — the trace groups core.RunBatch evaluated cold, including one
// it accounted from a trace recorded earlier in the same sweep — and every
// other lane counts in coalesced.  The single-fresh fast path avoids the
// map (and the key rendering) on the overwhelmingly common sweep of one
// cold setting.
func (sc *scheduler) recordSweep(b *core.Benchmark, settings []core.Setting, fresh []bool) {
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

package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
)

// Cross-request micro-batching.  K settings sharing a trace key ride ONE
// simulation within a sweep; the coalescer extends that amortization across
// the request boundary, and it is the only cold path: the cold settings of
// every /v1/run request — one for a single run, n for a batch — join the
// collection window of their (architecture, benchmark) group as lanes, and
// the window executes as one tuner lockstep sweep on one execution slot,
// with per-lane results (success, error or recovered panic) fanned back to
// each waiting request.  A window seals — no further lanes join — when the
// first of four bounds hits: the collection window elapses, the window
// reaches maxLanes, the system is idle (a lone request never waits; its
// window drains immediately), or a batch joins (a batch brings its own
// lanes, so it never waits).  Coalescing must be invisible in results: one
// merged sweep funnels through the same tuner.Memo claim protocol as
// per-request execution, so metrics, memo bookkeeping and fresh accounting
// stay bit-identical to one request per sweep — the property
// coalesce_test.go pins at several worker counts against one-lane windows.

// cwindow is one open collection window: the cold settings of one
// (architecture, benchmark) group, gathered while the window accepts
// joiners and executed as one sweep after it seals.
type cwindow struct {
	archName string
	b        *core.Benchmark
	openedAt time.Time

	// settings accumulates the joined requests' lanes, guarded by the
	// scheduler's cmu until sealed closes (after which it is immutable).
	settings []core.Setting

	// sealed closes when the window stops accepting lanes; done closes when
	// metrics/fresh/errs are populated.  lead holds a single token for the
	// executor role: sealed participants race for it, the winner runs the
	// sweep, and a winner whose context dies before it gets a slot returns
	// the token so another participant can take over — no lane is ever
	// stranded by its neighbour's cancellation.
	sealed chan struct{}
	done   chan struct{}
	lead   chan struct{}

	timer *time.Timer

	metrics []perf.Metrics
	fresh   []bool
	errs    []error
}

// joinWindow adds settings[i] for each i in cold as lanes of the open
// collection window of its group — opening one if needed — and returns the
// window and the first of the caller's consecutive lane indices.  It seals
// the window when a batch (more than one setting) joins, at the lane cap,
// and immediately when the joining request is the only admitted one (idle
// drain: a lone request must not pay the window bound).
func (sc *scheduler) joinWindow(archName string, b *core.Benchmark, settings []core.Setting, cold []int) (*cwindow, int) {
	key := archName + "|" + b.Name
	sc.cmu.Lock()
	w := sc.windows[key]
	if w == nil {
		w = &cwindow{
			archName: archName,
			b:        b,
			openedAt: time.Now(),
			sealed:   make(chan struct{}),
			done:     make(chan struct{}),
			lead:     make(chan struct{}, 1),
		}
		w.lead <- struct{}{}
		sc.windows[key] = w
		w.timer = time.AfterFunc(sc.window, func() { sc.seal(key, w) })
	}
	first := len(w.settings)
	for _, i := range cold {
		w.settings = append(w.settings, settings[i])
	}
	if len(settings) > 1 || len(w.settings) >= sc.maxLanes ||
		(first == 0 && sc.idleDrain && sc.admitted.Load() == 1) {
		sc.sealLocked(key, w)
	}
	sc.cmu.Unlock()
	return w, first
}

// seal is the timer-driven entry to sealLocked.
func (sc *scheduler) seal(key string, w *cwindow) {
	sc.cmu.Lock()
	sc.sealLocked(key, w)
	sc.cmu.Unlock()
}

// sealLocked (cmu held) closes window w for joining: it leaves the open-
// window map, so the next cold request of the group opens a fresh window.
// The map check makes sealing idempotent across its racing triggers (timer,
// lane cap, idle drain, a joining batch).
func (sc *scheduler) sealLocked(key string, w *cwindow) {
	if sc.windows[key] != w {
		return
	}
	delete(sc.windows, key)
	w.timer.Stop()
	close(w.sealed)
}

// runCold executes the cold settings of one admitted request (settings[i]
// for each i in cold) through the collection window of its group: join,
// wait for the window to seal, race for the executor role, and copy this
// request's own lanes back out.  A lane's coalesced flag reports whether it
// was answered without a fresh simulation (a duplicate of another lane or
// an earlier memo entry); the first lane error, in request order, fails the
// request.
func (sc *scheduler) runCold(ctx context.Context, archName string, b *core.Benchmark, settings []core.Setting, cold []int, metrics []perf.Metrics, coalesced []bool) error {
	w, first := sc.joinWindow(archName, b, settings, cold)
	select {
	case <-w.sealed:
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		select {
		case <-w.done:
			for j, i := range cold {
				if err := w.errs[first+j]; err != nil {
					return err
				}
				metrics[i], coalesced[i] = w.metrics[first+j], !w.fresh[first+j]
			}
			return nil
		case <-w.lead:
			if err := sc.executeWindow(ctx, w); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// executeWindow runs the sealed window's sweep on one execution slot and
// publishes per-lane results by closing done; evaluate fills every lane,
// even when the sweep panics.  The caller must hold the executor token; on
// slot-acquisition failure the token is returned (and the error reported)
// so another participant can execute instead.
func (sc *scheduler) executeWindow(ctx context.Context, w *cwindow) error {
	if err := sc.acquireSlot(ctx); err != nil {
		w.lead <- struct{}{}
		return err
	}
	defer sc.releaseSlot()
	sc.windowBatches.Add(1)
	sc.waitHist.observe(time.Since(w.openedAt).Seconds())
	sc.laneHist.observe(float64(len(w.settings)))
	w.metrics, w.fresh, w.errs = sc.evaluate(sc.pools[w.archName], w.b, w.settings)
	close(w.done)
	return nil
}

// laneBuckets and waitBuckets are the exposition bucket bounds of the
// coalescer histograms: lanes per sweep (counts) and window wait (seconds).
var (
	laneBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
	waitBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1}
)

// histogram is a fixed-bucket, Prometheus-style histogram with lock-free
// observation: per-bucket counts are plain (non-cumulative) atomics,
// cumulated only at exposition time, and the sum accumulates through a
// float64-bits compare-and-swap.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the extra slot is the +Inf bucket
	sum    atomic.Uint64  // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one value.
func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// write emits the histogram in Prometheus exposition format (cumulative
// _bucket series plus _sum and _count) under the given metric name.
func (h *histogram) write(out io.Writer, name string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(out, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(out, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(out, "%s_sum %g\n", name, math.Float64frombits(h.sum.Load()))
	fmt.Fprintf(out, "%s_count %d\n", name, cum)
}

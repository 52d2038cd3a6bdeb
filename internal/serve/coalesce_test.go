package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
	"dataproxy/pkg/client"
)

// coalesceScheduler builds a scheduler that seals a single run's window
// only at the lanes cap (idle drain off, a long timer as the failsafe), so
// tests compose sweeps deterministically.  One lane is the reference
// schedule: one request per sweep.
func coalesceScheduler(t testing.TB, maxInFlight, lanes int) *scheduler {
	t.Helper()
	proto := testutil.WestmereCluster()
	sc := newScheduler(maxInFlight, 16, 1<<20, time.Second, map[string]*sim.Cluster{"westmere": proto})
	sc.maxLanes = lanes
	sc.idleDrain = false
	return sc
}

// runOne runs a single-setting request on Westmere through the scheduler's
// one entry and returns its metrics and coalesced flag.
func runOne(ctx context.Context, sc *scheduler, b *core.Benchmark, s core.Setting) (perf.Metrics, bool, error) {
	metrics, coalesced := make([]perf.Metrics, 1), make([]bool, 1)
	err := sc.run(ctx, "westmere", b, []core.Setting{s}, metrics, coalesced)
	return metrics[0], coalesced[0], err
}

// TestCoalescedBitIdenticalToSequential is the tentpole's correctness
// property: a burst of concurrent cold requests merged into one collection
// window must return metric vectors byte-identical (JSON encoding) to the
// same settings executed sequentially in one-lane windows, one request per
// sweep, with identical memo bookkeeping — at several host worker counts,
// under -race.
func TestCoalescedBitIdenticalToSequential(t *testing.T) {
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	settings := benchColdSettings()
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(workers)
		t.Cleanup(func() { parallel.SetWorkers(prev) })

		// Sequential reference: one-lane windows, one request per sweep.
		seq := coalesceScheduler(t, 8, 1)
		want := make([]string, len(settings))
		for i, s := range settings {
			m, coalesced, err := runOne(ctx, seq, bench, s)
			if err != nil {
				t.Fatalf("workers=%d sequential %d: %v", workers, i, err)
			}
			if coalesced {
				t.Fatalf("workers=%d sequential %d: cold request reported coalesced", workers, i)
			}
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = string(data)
		}

		// Coalesced: every request joins one window (size cap = burst size).
		coal := coalesceScheduler(t, 8, len(settings))
		got := make([]string, len(settings))
		var wg sync.WaitGroup
		for i, s := range settings {
			wg.Add(1)
			go func(i int, s core.Setting) {
				defer wg.Done()
				m, coalesced, err := runOne(ctx, coal, bench, s)
				if err != nil {
					t.Errorf("workers=%d coalesced %d: %v", workers, i, err)
					return
				}
				if coalesced {
					t.Errorf("workers=%d coalesced %d: distinct cold lane reported coalesced", workers, i)
				}
				data, err := json.Marshal(m)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = string(data)
			}(i, s)
		}
		wg.Wait()

		for i := range settings {
			if got[i] != want[i] {
				t.Fatalf("workers=%d setting %d: coalesced metrics diverge from sequential:\n%s\nvs\n%s", workers, i, got[i], want[i])
			}
		}
		if sm, cm := seq.memo.Size(), coal.memo.Size(); sm != cm {
			t.Fatalf("workers=%d: memo sizes diverge: sequential %d, coalesced %d", workers, sm, cm)
		}
		if got := coal.executed.Load(); got != 2 {
			t.Fatalf("workers=%d: coalesced sweep executed %d simulations, want 2 (distinct trace groups)", workers, got)
		}
		if got := seq.executed.Load(); got != int64(len(settings)) {
			t.Fatalf("workers=%d: sequential executed %d simulations, want %d", workers, got, len(settings))
		}
		if got := seq.windowBatches.Load(); got != int64(len(settings)) {
			t.Fatalf("workers=%d: sequential ran %d window sweeps, want %d", workers, got, len(settings))
		}
		if got := coal.windowBatches.Load(); got != 1 {
			t.Fatalf("workers=%d: %d window batches, want 1", workers, got)
		}
	}
}

// TestBatchJoinsOpenWindow pins the one cold path: a batch whose
// (architecture, benchmark) group has a window open, held by concurrent cold
// single runs, joins that window as lanes and seals it, so singles and batch
// ride ONE sweep that evaluates each shared trace group once — and every
// request reads the metric bytes a one-lane window gives it.
func TestBatchJoinsOpenWindow(t *testing.T) {
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	// Two trace groups (chunkSize 1 and 2), each shared by two singles and
	// two batch settings that differ only in dataSize.
	var singles, batch []core.Setting
	for _, chunk := range []float64{1, 2} {
		singles = append(singles, core.Setting{"chunkSize": chunk, "dataSize": 1.1}, core.Setting{"chunkSize": chunk, "dataSize": 1.2})
		batch = append(batch, core.Setting{"chunkSize": chunk, "dataSize": 1.3}, core.Setting{"chunkSize": chunk, "dataSize": 1.4})
	}
	ctx := context.Background()

	// Idle drain off and a lane cap the singles never reach: only the
	// timer, a minute away, or the batch can seal their window.
	sc := coalesceScheduler(t, 8, coalesceLanes)
	sc.window = time.Minute
	key := "westmere|" + bench.Name
	laneCount := func() int {
		sc.cmu.Lock()
		defer sc.cmu.Unlock()
		if w := sc.windows[key]; w != nil {
			return len(w.settings)
		}
		return 0
	}
	got := make([]string, len(singles)+len(batch))
	var wg sync.WaitGroup
	for i, s := range singles {
		wg.Add(1)
		go func(i int, s core.Setting) {
			defer wg.Done()
			m, coalesced, err := runOne(ctx, sc, bench, s)
			if err != nil || coalesced {
				t.Errorf("single %d: coalesced=%v err=%v, want a fresh lane", i, coalesced, err)
			}
			got[i] = metricsJSON(t, m)
		}(i, s)
	}
	for deadline := time.Now().Add(30 * time.Second); laneCount() < len(singles); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the singles never held a window of %d lanes open (have %d)", len(singles), laneCount())
		}
	}

	metrics, coalesced := make([]perf.Metrics, len(batch)), make([]bool, len(batch))
	if err := sc.run(ctx, "westmere", bench, batch, metrics, coalesced); err != nil {
		t.Fatal(err)
	}
	if n := laneCount(); n != 0 {
		sc.cmu.Lock()
		sc.sealLocked(key, sc.windows[key]) // release the singles before failing
		sc.cmu.Unlock()
		wg.Wait()
		t.Fatalf("the batch left the singles' window open with %d lanes: it did not join and seal it", n)
	}
	wg.Wait()
	for i, m := range metrics {
		if coalesced[i] {
			t.Errorf("batch setting %d: distinct cold lane reported coalesced", i)
		}
		got[len(singles)+i] = metricsJSON(t, m)
	}

	if n := sc.windowBatches.Load(); n != 1 {
		t.Fatalf("%d sweeps ran, want 1: singles and batch share one window", n)
	}
	groups := map[string]bool{}
	for _, s := range append(append([]core.Setting{}, singles...), batch...) {
		groups[bench.TraceKey(s)] = true
	}
	if n := sc.executed.Load(); n != int64(len(groups)) {
		t.Fatalf("executed %d trace keys, want %d: the merged sweep evaluates each shared group once", n, len(groups))
	}

	// Reference: every setting alone in a one-lane window.
	ref := coalesceScheduler(t, 8, 1)
	for i, s := range append(append([]core.Setting{}, singles...), batch...) {
		m, _, err := runOne(ctx, ref, bench, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := metricsJSON(t, m); got[i] != want {
			t.Fatalf("request setting %d: merged-sweep metrics diverge from a one-lane window:\n%s\nvs\n%s", i, got[i], want)
		}
	}
}

// metricsJSON is the wire encoding of a metric vector.
func metricsJSON(t *testing.T, m perf.Metrics) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCoalescedPanicFailsOnlyContributors injects a panic into the middle of
// a coalesced sweep (the serve.evaluate fault site fires inside the memo
// claims) and checks the blast radius: every contributing request gets an
// error — none hangs — the panic is cached on the claimed entries so a
// repeat of a failed setting replays the error without a new sweep, and the
// next sweep with fresh settings is healthy.
func TestCoalescedPanicFailsOnlyContributors(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set("serve.evaluate", faultinject.Fault{Panic: true, PanicMsg: "boom", Times: 1})

	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 4
	sc := coalesceScheduler(t, 4, lanes)
	ctx := context.Background()

	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = runOne(ctx, sc, bench, core.Setting{"dataSize": 1 + float64(i)*0.1})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a coalesced waiter hung after a mid-sweep panic")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("lane %d: error %v, want a cached panic error", i, err)
		}
	}

	// The panic is cached per entry: repeating a failed setting replays the
	// error from the cache (no admission, no new sweep).
	batches := sc.windowBatches.Load()
	_, coalesced, err := runOne(ctx, sc, bench, core.Setting{"dataSize": 1.1})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("repeat of a failed setting: error %v, want the cached panic error", err)
	}
	if !coalesced {
		t.Fatal("repeat of a failed setting should be answered from the cache")
	}
	if got := sc.windowBatches.Load(); got != batches {
		t.Fatalf("repeat of a failed setting ran %d new window batches", got-batches)
	}

	// The fault fired once (Times: 1): the next sweep is healthy.
	fresh := make([]error, lanes)
	var wg2 sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			m, _, err := runOne(ctx, sc, bench, core.Setting{"dataSize": 2 + float64(i)*0.1})
			if err == nil && m.Runtime == 0 {
				err = fmt.Errorf("healthy sweep returned zero metrics")
			}
			fresh[i] = err
		}(i)
	}
	wg2.Wait()
	for i, err := range fresh {
		if err != nil {
			t.Fatalf("post-panic lane %d: %v, want a healthy sweep", i, err)
		}
	}
}

// TestLoneRequestDrainsIdleWindow pins the latency bound of the issue: with
// idle drain on (the default), a lone cold request must not wait out the
// collection window — even a pathological 5s window seals at once.  The
// bound is on the window wait the scheduler records (window open to sweep
// start), not on the request's wall time, which also covers the
// simulation and varies with the host and the race detector.
func TestLoneRequestDrainsIdleWindow(t *testing.T) {
	proto := testutil.WestmereCluster()
	sc := newScheduler(2, 16, 1<<20, 5*time.Second, map[string]*sim.Cluster{"westmere": proto})
	bench, err := proxy.ForWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runOne(context.Background(), sc, bench, core.DefaultSetting()); err != nil {
		t.Fatal(err)
	}
	if n := sc.windowBatches.Load(); n != 1 {
		t.Fatalf("lone request ran %d window sweeps, want 1", n)
	}
	if wait := math.Float64frombits(sc.waitHist.sum.Load()); wait > 1 {
		t.Fatalf("lone request waited %.3fs in its window: the idle window did not drain immediately", wait)
	}
}

// TestCoalesceMetricsExposition checks /metrics carries the coalescer
// counters and histograms after a forced cross-request batch.
func TestCoalesceMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceWindow: time.Second})
	s.sched.maxLanes = 2
	s.sched.idleDrain = false

	var wg sync.WaitGroup
	for _, data := range []float64{1.1, 1.2} {
		wg.Add(1)
		go func(data float64) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": data}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("run dataSize=%g: status %d body %s", data, resp.StatusCode, body)
			}
		}(data)
	}
	wg.Wait()

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"proxyd_coalesce_window_batches_total 1",
		// One sweep of two lanes: the le="2" lane bucket and the counts.
		`proxyd_coalesce_lanes_per_sweep_bucket{le="2"} 1`,
		"proxyd_coalesce_lanes_per_sweep_sum 2",
		"proxyd_coalesce_lanes_per_sweep_count 1",
		`proxyd_coalesce_window_wait_seconds_bucket{le="+Inf"} 1`,
		"proxyd_coalesce_window_wait_seconds_count 1",
		// Two dataSize-only variants share terasort's trace: one simulation.
		"proxyd_run_executed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestConfigCoalesceDefaults pins the coalescer and logging defaults the
// flags document.
func TestConfigCoalesceDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.CoalesceWindow != 2*time.Millisecond {
		t.Errorf("CoalesceWindow default %v, want 2ms", cfg.CoalesceWindow)
	}
	if cfg.RequestLog != nil {
		t.Error("RequestLog must default to nil (logging off)")
	}
	cfg = Config{CoalesceWindow: -1}.withDefaults()
	if cfg.CoalesceWindow != 2*time.Millisecond {
		t.Errorf("negative CoalesceWindow should select the 2ms default, got %v", cfg.CoalesceWindow)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer, so the request-log handler may
// write from request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging drives a run and a bad request through a server with
// structured request logging enabled and checks the lines carry the
// documented fields (method, route, status, duration, shard, coalesced).
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	lg := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	_, ts := newTestServer(t, Config{Name: "shard-a", RequestLog: lg})

	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d body %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad run: status %d, want 400", resp.StatusCode)
	}

	text := buf.String()
	for _, want := range []string{
		"method=POST",
		`route="POST /v1/run"`,
		"status=200",
		"status=400",
		"shard=shard-a",
		"coalesced=false",
		"duration_ms=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("request log missing %q in:\n%s", want, text)
		}
	}
}

// TestHistogramBuckets pins the histogram's Prometheus semantics: values
// land in the first bucket whose bound is >= the value (le semantics),
// bucket counts cumulate at exposition, and sum/count follow every
// observation.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 2, 3, 100} {
		h.observe(v)
	}
	var out bytes.Buffer
	h.write(&out, "x")
	want := `x_bucket{le="1"} 2
x_bucket{le="2"} 3
x_bucket{le="4"} 4
x_bucket{le="+Inf"} 5
x_sum 106.5
x_count 5
`
	if out.String() != want {
		t.Fatalf("histogram exposition:\n%s\nwant:\n%s", out.String(), want)
	}
}

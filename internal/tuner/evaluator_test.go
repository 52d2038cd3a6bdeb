package tuner

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// TestMeasureBatchDeduplicatesAndCaches drives the batch memo API
// (MeasureLanes) directly: duplicate keys within one batch execute once
// (first occurrence fresh, the rest answered from the fresh entry), and a
// second batch over the same keys executes nothing.
func TestMeasureBatchDeduplicatesAndCaches(t *testing.T) {
	m := NewMemo()
	var mu sync.Mutex
	var executed []string
	run := func(keys []string) func(cold []int) ([]perf.Metrics, error) {
		return func(cold []int) ([]perf.Metrics, error) {
			out := make([]perf.Metrics, len(cold))
			mu.Lock()
			for j, i := range cold {
				executed = append(executed, keys[i])
				out[j] = perf.Metrics{Runtime: float64(len(keys[i]))}
			}
			mu.Unlock()
			return out, nil
		}
	}

	keys := []string{"a", "bb", "a", "ccc"}
	metrics, fresh, errs := m.MeasureLanes(keys, run(keys))
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false, true}; !equalBools(fresh, want) {
		t.Fatalf("fresh flags %v, want %v", fresh, want)
	}
	if len(executed) != 3 {
		t.Fatalf("executed %v, want the 3 distinct keys once each", executed)
	}
	for i, k := range keys {
		if metrics[i].Runtime != float64(len(k)) {
			t.Fatalf("metrics[%d].Runtime = %g, want %d", i, metrics[i].Runtime, len(k))
		}
	}

	metrics2, fresh2, errs := m.MeasureLanes(keys, func(cold []int) ([]perf.Metrics, error) {
		t.Errorf("warm batch re-executed cold indexes %v", cold)
		return nil, errors.New("must not run")
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if fresh2[i] {
			t.Fatalf("second batch fresh[%d]=true, want all warm", i)
		}
		if metrics2[i] != metrics[i] {
			t.Fatalf("second batch metrics[%d] diverge", i)
		}
	}
	if m.Size() != 3 {
		t.Fatalf("memo holds %d entries, want 3", m.Size())
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMeasureBatchErrorCompletesAllEntries: a failing batched run must cache
// the error on every claimed entry — every lane reports it, concurrent
// waiters are woken with it instead of hanging, and retries replay it
// without re-simulating.
func TestMeasureBatchErrorCompletesAllEntries(t *testing.T) {
	m := NewMemo()
	boom := errors.New("boom")
	_, _, errs := m.MeasureLanes([]string{"x", "y"}, func(cold []int) ([]perf.Metrics, error) {
		return nil, boom
	})
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("lane %d error %v, want boom", i, err)
		}
	}
	for _, key := range []string{"x", "y"} {
		_, fresh, err := m.Measure(key, func() (perf.Metrics, error) {
			t.Errorf("key %q re-executed after cached failure", key)
			return perf.Metrics{}, nil
		})
		if fresh || !errors.Is(err, boom) {
			t.Fatalf("key %q: fresh=%v err=%v, want cached boom", key, fresh, err)
		}
	}
}

// TestMeasureBatchPanicCompletesAllEntries: a panicking batched run re-raises
// but still completes every claimed entry with an error, so no waiter hangs.
func TestMeasureBatchPanicCompletesAllEntries(t *testing.T) {
	m := NewMemo()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_, _, _ = m.MeasureLanes([]string{"p", "q"}, func(cold []int) ([]perf.Metrics, error) {
			panic("kaboom")
		})
	}()
	for _, key := range []string{"p", "q"} {
		_, _, err := m.Measure(key, func() (perf.Metrics, error) {
			t.Errorf("key %q re-executed after panic", key)
			return perf.Metrics{}, nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("key %q: err %v, want cached panic error", key, err)
		}
	}
}

// TestMeasureBatchLengthMismatch: a run returning the wrong result count is an
// error cached on every cold entry, not a silent partial write.
func TestMeasureBatchLengthMismatch(t *testing.T) {
	m := NewMemo()
	_, _, errs := m.MeasureLanes([]string{"u", "v"}, func(cold []int) ([]perf.Metrics, error) {
		return make([]perf.Metrics, 1), nil
	})
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "returned 1 results for 2 settings") {
			t.Fatalf("lane %d err %v, want length-mismatch error", i, err)
		}
	}
}

// TestEvaluatorMatchesCoreRun pins the evaluator contract: the single shared
// entry point returns metrics bit-identical to one-at-a-time core.Run on
// fresh clusters, a repeated evaluation is answered entirely from the memo,
// and a one-setting evaluation agrees with the batched one.
func TestEvaluatorMatchesCoreRun(t *testing.T) {
	b := testutil.SmallBenchmark()
	pool := sim.NewClusterPool(testutil.WestmereCluster())
	ev := NewEvaluator(pool, b, NewMemo())
	settings := []core.Setting{
		nil,
		{"dataSize": 0.5},
		{"dataSize": 2, "numTasks": 0.5},
		{"dataSize": 0.5}, // batch duplicate
	}

	got, fresh, err := ev.Evaluate(settings)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, true, false}; !equalBools(fresh, want) {
		t.Fatalf("fresh flags %v, want %v", fresh, want)
	}
	for i, s := range settings {
		rep, err := core.Run(testutil.WestmereCluster(), b, s)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got[i])
		wantJSON, _ := json.Marshal(rep.Metrics)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("setting %d: evaluator metrics diverge from core.Run:\n%s\nvs\n%s", i, gotJSON, wantJSON)
		}
	}

	_, fresh, err = ev.Evaluate(settings)
	if err != nil {
		t.Fatal(err)
	}
	for i := range settings {
		if fresh[i] {
			t.Fatalf("repeat evaluation fresh[%d]=true, want a pure memo hit", i)
		}
	}

	one, _, err := ev.Evaluate([]core.Setting{{"dataSize": 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != got[1] {
		t.Fatal("a one-setting evaluation diverges from the batched evaluation of the same setting")
	}
}

// TestEvaluatorNilMemoIsPrivate: a nil memo still deduplicates within the
// evaluator but shares nothing with other evaluators.
func TestEvaluatorNilMemoIsPrivate(t *testing.T) {
	b := testutil.SmallBenchmark()
	pool := sim.NewClusterPool(testutil.WestmereCluster())
	ev := NewEvaluator(pool, b, nil)
	if ev.memo == nil {
		t.Fatal("nil memo should be replaced with a private one")
	}
	if _, _, err := ev.Evaluate([]core.Setting{{"dataSize": 0.5}}); err != nil {
		t.Fatal(err)
	}
	if size := ev.memo.Size(); size != 1 {
		t.Fatalf("private memo holds %d entries, want 1", size)
	}
	other := NewEvaluator(pool, b, nil)
	if other.memo == ev.memo {
		t.Fatal("two nil-memo evaluators must not share a memo")
	}
}

// TestEvaluatorColdHookErrorIsCachedPerEntry: an error raised by the cold
// hook lands inside the memo claims, so it is cached on every entry the
// sweep claimed — each lane reports it, a batch duplicate replays it — and
// a warm repeat replays the cached error without running the hook again.
func TestEvaluatorColdHookErrorIsCachedPerEntry(t *testing.T) {
	b := testutil.SmallBenchmark()
	memo := NewMemo()
	boom := errors.New("injected cold-sweep failure")
	hookRuns := 0
	ev := NewEvaluator(testutil.Pool(arch.Westmere()), b, memo).WithColdHook(func() error {
		hookRuns++
		return boom
	})
	settings := []core.Setting{nil, {"dataSize": 0.5}, nil}

	_, fresh, errs := ev.EvaluateLanes(settings)
	if want := []bool{true, true, false}; !equalBools(fresh, want) {
		t.Fatalf("fresh flags %v, want %v", fresh, want)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("lane %d error %v, want the hook's error", i, err)
		}
	}
	if hookRuns != 1 {
		t.Fatalf("hook ran %d times for one cold sweep, want 1", hookRuns)
	}
	proto := testutil.WestmereCluster()
	for _, s := range settings {
		if _, ok, err := memo.PeekBytes([]byte(MemoKey(proto, b, s))); !ok || !errors.Is(err, boom) {
			t.Fatalf("memo entry for %v: ok=%v err=%v, want the cached hook error", s, ok, err)
		}
	}

	_, fresh, err := ev.Evaluate(settings)
	if !errors.Is(err, boom) {
		t.Fatalf("warm repeat error %v, want the cached hook error", err)
	}
	if !equalBools(fresh, []bool{false, false, false}) {
		t.Fatalf("warm repeat fresh flags %v, want all cached", fresh)
	}
	if hookRuns != 1 {
		t.Fatalf("warm repeat re-ran the hook (%d runs)", hookRuns)
	}
}

// TestMeasureBatchConcurrentOverlap hammers overlapping batches from many
// goroutines: every distinct key must execute exactly once across all
// callers (the -race companion to TestMemoSingleflight, batched).
func TestMeasureBatchConcurrentOverlap(t *testing.T) {
	m := NewMemo()
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	var executions [5]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := append([]string{}, keys[g%3:]...)
			_, _, errs := m.MeasureLanes(batch, func(cold []int) ([]perf.Metrics, error) {
				mu.Lock()
				for _, i := range cold {
					executions[(g%3)+i]++
				}
				mu.Unlock()
				return make([]perf.Metrics, len(cold)), nil
			})
			if err := errors.Join(errs...); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, n := range executions {
		if n != 1 {
			t.Fatalf("key %d executed %d times, want exactly once", i, n)
		}
	}
}

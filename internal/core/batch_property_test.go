package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

func metricsJSON(t *testing.T, rep sim.Report) []byte {
	t.Helper()
	buf, err := rep.Metrics.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return buf
}

// soloReportsSHA256 pins, per architecture profile, the SHA-256 over the
// one-lane reports of TestRunBatchMatchesSequential's 21 random settings:
// for each report its canonical metric bytes, then
// "|%x|%+v|%+v\n" of the runtime's float64 bits, the aggregate counters
// and the stages.  The values come from core.Run's former solo
// implementation, so a bug that every lane shares, which lane invariance
// cannot see (a dropped weight factor, a wrong input scale), still fails
// here.  A change that means to alter the model updates these hashes and
// says so.
var soloReportsSHA256 = map[string]string{
	"westmere": "9b6ea74494f4db89a64c447c8bf3f58620b231c9a78c5b71535a4f39933afa91",
	"haswell":  "2291f1f8bd55729743f5dfc2721a117ee6f0da763bb037346547d3f49431cfa4",
}

// TestRunBatchMatchesSequential is the lane-invariance property: for
// randomized K (including K=1 and K larger than the host worker count),
// both architecture profiles and several host worker counts, lane i of
// RunBatch(pool, b, S) must be bit-identical — metric bytes, aggregate
// counters, runtime and stages — to RunBatch(pool, b, S[i:i+1])[0], the
// one-lane batch core.Run also executes.  The one-lane reports themselves
// are pinned by soloReportsSHA256.
func TestRunBatchMatchesSequential(t *testing.T) {
	for _, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			b := testutil.SmallBenchmark()
			pool := testutil.Pool(np.Profile)
			digest := sha256.New()
			for _, k := range []int{1, 3, 17} {
				settings := make([]core.Setting, k)
				for i := range settings {
					settings[i] = testutil.RandomSetting(rng)
				}
				want := make([]sim.Report, k)
				for i := range settings {
					reps, err := core.RunBatch(pool, b, settings[i:i+1], nil)
					if err != nil {
						t.Fatalf("one-lane run %d: %v", i, err)
					}
					want[i] = reps[0]
					digest.Write(metricsJSON(t, want[i]))
					fmt.Fprintf(digest, "|%x|%+v|%+v\n", math.Float64bits(want[i].Runtime), want[i].Aggregate, want[i].Stages)
				}
				for _, workers := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(workers)
					got, err := core.RunBatch(pool, b, settings, nil)
					parallel.SetWorkers(prev)
					if err != nil {
						t.Fatalf("k=%d workers=%d: %v", k, workers, err)
					}
					if len(got) != k {
						t.Fatalf("k=%d: got %d reports", k, len(got))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("k=%d workers=%d lane %d (%v): batched report diverges\n got: %+v\nwant: %+v",
								k, workers, i, settings[i], got[i], want[i])
						}
						if gb, wb := metricsJSON(t, got[i]), metricsJSON(t, want[i]); !bytes.Equal(gb, wb) {
							t.Errorf("k=%d lane %d: metric bytes diverge\n got %s\nwant %s", k, i, gb, wb)
						}
						if got[i].Aggregate != want[i].Aggregate {
							t.Errorf("k=%d lane %d: counters diverge\n got %+v\nwant %+v", k, i, got[i].Aggregate, want[i].Aggregate)
						}
					}
				}
			}
			if got := fmt.Sprintf("%x", digest.Sum(nil)); got != soloReportsSHA256[np.Name] {
				t.Fatalf("one-lane reports moved: sha256 %s, pinned %s", got, soloReportsSHA256[np.Name])
			}
		})
	}
}

// oneLane returns each setting's report from a one-lane RunBatch with a
// fresh trace store: the simulated reference every replayed report must
// equal.
func oneLane(t *testing.T, pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) []sim.Report {
	t.Helper()
	out := make([]sim.Report, len(settings))
	for i, s := range settings {
		reps, err := core.RunBatch(pool, b, []core.Setting{s}, nil)
		if err != nil {
			t.Fatalf("one-lane run of %v: %v", s, err)
		}
		out[i] = reps[0]
	}
	return out
}

// TestRunBatchReplayMatchesFreshRuns is the replay property: RunBatch calls
// that share one TraceStore account every group the store serves from a
// recorded trace, and each report must be bit-identical to a one-lane
// RunBatch of its setting with a fresh store, on both profiles and at 1, 2
// and 8 workers.
//
// SmallBenchmark's tasks run shares of 32700 and 32800 bytes under an 8 MiB
// base chunk size, so chunk factors 0.001 and 0.002 chunk every share,
// 0.0039 only the larger ones, and 0.004 and up none.  The first call
// records a trace that chunked every share, so a store that ignored
// chunking would serve the unchunked settings after it from that trace.
// Inception-V3's image batch cannot be split across its tasks, so its
// replays spread each lane's work over the task count, and its 0.2 chunk
// factor chunks a share its factor-1 run keeps whole, so those two must
// not share a trace.  Every group but the 7 the store ends with is a
// replay.  Inception-V3 is the slow part: -short runs it on the first
// profile at 1 worker only.
func TestRunBatchReplayMatchesFreshRuns(t *testing.T) {
	type call struct {
		b        *core.Benchmark
		settings []core.Setting
	}
	small, inception := testutil.SmallBenchmark(), proxy.InceptionV3()
	smallCalls := []call{
		{small, []core.Setting{{"chunkSize": 0.001}}},
		{small, []core.Setting{{"chunkSize": 0.5}, {"chunkSize": 0.001, "weight": 2}, {"chunkSize": 0.002}}},
		{small, []core.Setting{
			{"chunkSize": 2, "dataSize": 0.5}, {"chunkSize": 0.004}, {"chunkSize": 0.0039}, nil,
			{"chunkSize": 0.002, "weight": 1.6}, {"numTasks": 2, "chunkSize": 0.002},
		}},
	}
	inceptionCalls := []call{
		{inception, []core.Setting{{"chunkSize": 0.2}}},
		{inception, []core.Setting{{"chunkSize": 1}, {"chunkSize": 0.2, "dataSize": 1.25}}},
		{inception, []core.Setting{{"chunkSize": 0.6}}},
	}
	allCalls := append(smallCalls[:len(smallCalls):len(smallCalls)], inceptionCalls...)
	for pi, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			pool := testutil.Pool(np.Profile)
			want := make([][]sim.Report, len(allCalls))
			for wi, workers := range []int{1, 2, 8} {
				calls := allCalls
				if testing.Short() && (pi > 0 || wi > 0) {
					calls = smallCalls
				}
				for ci := range calls {
					if want[ci] == nil {
						want[ci] = oneLane(t, pool, calls[ci].b, calls[ci].settings)
					}
				}
				prev := parallel.SetWorkers(workers)
				store := &core.TraceStore{}
				for ci, c := range calls {
					got, err := core.RunBatch(pool, c.b, c.settings, store)
					if err != nil {
						t.Errorf("workers=%d call %d: %v", workers, ci, err)
						continue
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[ci][i]) {
							t.Errorf("workers=%d call %d %s (%v): replayed report diverges\n got: %+v\nwant: %+v",
								workers, ci, c.b.Name, c.settings[i], got[i], want[ci][i])
						}
					}
				}
				parallel.SetWorkers(prev)
				wantTraces := 5 // SmallBenchmark's, plus Inception-V3's 2
				if len(calls) == len(allCalls) {
					wantTraces = 7
				}
				if n := core.StoredTracesForTest(store); n != wantTraces {
					t.Errorf("workers=%d: store holds %d traces, want %d", workers, n, wantTraces)
				}
			}
		})
	}
}

// impactSettings is the tuner's default impact-analysis grid: dataSize,
// chunkSize, numTasks and weight, one at a time, at 0.6, 0.8, 1.25 and 1.6.
func impactSettings() []core.Setting {
	var out []core.Setting
	for _, p := range []string{"dataSize", "chunkSize", "numTasks", "weight"} {
		for _, f := range []float64{0.6, 0.8, 1.25, 1.6} {
			out = append(out, core.Setting{p: f})
		}
	}
	return out
}

// TestTraceStoreSimulatesEachShapeOnce runs SmallBenchmark's baseline and
// then the tuner's 16 default impact settings through one store, as a
// tune's evaluator does.  The store must then hold exactly 5 traces: the
// baseline's, which serves every dataSize, weight and chunkSize setting,
// and one per numTasks factor.  Every report must equal its one-lane run.
func TestTraceStoreSimulatesEachShapeOnce(t *testing.T) {
	b := testutil.SmallBenchmark()
	pool := testutil.Pool(testutil.Profiles()[0].Profile)
	store := &core.TraceStore{}
	for _, settings := range [][]core.Setting{{nil}, impactSettings()} {
		got, err := core.RunBatch(pool, b, settings, store)
		if err != nil {
			t.Fatal(err)
		}
		want := oneLane(t, pool, b, settings)
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v: report diverges from its one-lane run\n got: %+v\nwant: %+v", settings[i], got[i], want[i])
			}
		}
	}
	if n := core.StoredTracesForTest(store); n != 5 {
		t.Fatalf("store holds %d traces after the baseline and the impact grid, want 5", n)
	}
}

// TestTraceStoreConcurrentRunBatch has several goroutines call RunBatch on
// one store at once, over overlapping settings in different orders, so
// lookups, replays and recordings interleave; every report must still
// equal its one-lane run.  Run it under the race detector.
func TestTraceStoreConcurrentRunBatch(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	b := testutil.SmallBenchmark()
	pool := testutil.Pool(testutil.Profiles()[0].Profile)
	settings := append([]core.Setting{nil, {"chunkSize": 0.002}}, impactSettings()...)
	want := oneLane(t, pool, b, settings)

	store := &core.TraceStore{}
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Caller c starts at a different offset, so the callers reach
			// the shapes in different orders.
			order := make([]int, len(settings))
			batch := make([]core.Setting, len(settings))
			for i := range order {
				order[i] = (i + c*5) % len(settings)
				batch[i] = settings[order[i]]
			}
			got, err := core.RunBatch(pool, b, batch, store)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			for i, idx := range order {
				if !reflect.DeepEqual(got[i], want[idx]) {
					t.Errorf("caller %d: %v: report diverges from its one-lane run", c, settings[idx])
				}
			}
		}(c)
	}
	wg.Wait()
}

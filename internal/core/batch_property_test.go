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

// storeCall is one RunBatch call of a sequence that shares a trace store.
type storeCall struct {
	b        *core.Benchmark
	settings []core.Setting
}

// runStoreCalls makes the calls in order on one fresh store at the given
// worker count and checks that every report equals want, each call's
// one-lane runs on fresh stores, which it computes for the calls that have
// none yet.  It returns the store.
func runStoreCalls(t *testing.T, pool *sim.ClusterPool, calls []storeCall, want [][]sim.Report, workers int) *core.TraceStore {
	t.Helper()
	for ci := range calls {
		if want[ci] == nil {
			want[ci] = oneLane(t, pool, calls[ci].b, calls[ci].settings)
		}
	}
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	store := &core.TraceStore{}
	for ci, c := range calls {
		got, err := core.RunBatch(pool, c.b, c.settings, store)
		if err != nil {
			t.Errorf("workers=%d call %d: %v", workers, ci, err)
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[ci][i]) {
				t.Errorf("workers=%d call %d %s (%v): report diverges from its one-lane run\n got: %+v\nwant: %+v",
					workers, ci, c.b.Name, c.settings[i], got[i], want[ci][i])
			}
		}
	}
	return store
}

// checkStored fails the test unless the store holds the given numbers of
// simulated and resumed traces.
func checkStored(t *testing.T, label string, store *core.TraceStore, simulated, resumed int) {
	t.Helper()
	if s, r := store.Groups(); s != simulated || r != resumed {
		t.Errorf("%s: store holds %d simulated and %d resumed traces, want %d and %d", label, s, r, simulated, resumed)
	}
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
	small, inception := testutil.SmallBenchmark(), proxy.InceptionV3()
	smallCalls := []storeCall{
		{small, []core.Setting{{"chunkSize": 0.001}}},
		{small, []core.Setting{{"chunkSize": 0.5}, {"chunkSize": 0.001, "weight": 2}, {"chunkSize": 0.002}}},
		{small, []core.Setting{
			{"chunkSize": 2, "dataSize": 0.5}, {"chunkSize": 0.004}, {"chunkSize": 0.0039}, nil,
			{"chunkSize": 0.002, "weight": 1.6}, {"numTasks": 2, "chunkSize": 0.002},
		}},
	}
	inceptionCalls := []storeCall{
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
				store := runStoreCalls(t, pool, calls, want, workers)
				wantTraces := 5 // SmallBenchmark's, plus Inception-V3's 2
				if len(calls) == len(allCalls) {
					wantTraces = 7
				}
				checkStored(t, fmt.Sprintf("workers=%d", workers), store, wantTraces, 0)
			}
		})
	}
}

// TestRunBatchResumeMatchesFreshRuns is the resume property: groups of
// GraphBenchmark at a task count no stored trace ran at resume a stored
// trace after its three fixed edges, and groups of AlexNet, whose inputs
// no task count splits, replay one trace at every task count.  Each report
// must be bit-identical to a one-lane RunBatch of its setting with a fresh
// store, on both profiles and at 1, 2 and 8 workers.
//
// GraphBenchmark runs 4 tasks at a 1 MiB chunk size by default.  The task
// factors give 1 task, 2 and 8 tasks, and 128, more tasks than the 100
// degrees quicksort splits; at 1 task and at 128 the last edge allocates
// its region on a data set of the resume point.  Chunk factor 0.5 chunks
// nothing; 0.05 chunks the 80000-byte matrix, a fixed edge's input, so
// only a trace at that chunk size can be resumed; 0.004 also chunks the
// graph, and 0.001 the 1600 bytes of degrees at 1 task as well.  The store
// ends with 4 simulated traces and 8 resumed ones.  -short leaves out
// AlexNet, whose baseline and 16 impact settings must leave its store with
// 1 trace.
func TestRunBatchResumeMatchesFreshRuns(t *testing.T) {
	graph, alexnet := testutil.GraphBenchmark(), proxy.AlexNet()
	calls := []storeCall{
		{graph, []core.Setting{nil}},
		{graph, []core.Setting{{"numTasks": 0.25}, {"numTasks": 0.25, "weight": 2}, {"numTasks": 2}}},
		{graph, []core.Setting{
			{"numTasks": 32}, {"numTasks": 0.25, "chunkSize": 0.5}, {"numTasks": 2, "chunkSize": 0.05},
			{"numTasks": 0.5, "dataSize": 0.5}, {"numTasks": 1, "weight": 1.6},
		}},
		{graph, []core.Setting{{"numTasks": 0.25, "chunkSize": 0.05}, {"chunkSize": 0.001}}},
		{graph, []core.Setting{
			{"numTasks": 0.25, "chunkSize": 0.001}, {"numTasks": 0.5, "chunkSize": 0.001},
			{"numTasks": 2, "chunkSize": 0.004}, {"numTasks": 32, "chunkSize": 0.05, "weight": 0.5},
		}},
	}
	aiCalls := []storeCall{{alexnet, []core.Setting{nil}}, {alexnet, impactSettings()}}
	for _, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			pool := testutil.Pool(np.Profile)
			want := make([][]sim.Report, len(calls))
			aiWant := make([][]sim.Report, len(aiCalls))
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				checkStored(t, label, runStoreCalls(t, pool, calls, want, workers), 4, 8)
				if !testing.Short() {
					checkStored(t, label+" AlexNet", runStoreCalls(t, pool, aiCalls, aiWant, workers), 1, 0)
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

// TestTraceStoreSimulatesEachShapeOnce runs each benchmark's baseline and
// then the tuner's 16 default impact settings through one store, as a
// tune's evaluator does, and every report must equal its one-lane run.
// SmallBenchmark's store must then hold 5 simulated traces: the
// baseline's, which serves every dataSize, weight and chunkSize setting,
// and one per numTasks factor, because its first edge splits its input.
// GraphBenchmark's must hold the baseline's and 4 traces that resumed it,
// one per numTasks factor.
func TestTraceStoreSimulatesEachShapeOnce(t *testing.T) {
	pool := testutil.Pool(testutil.Profiles()[0].Profile)
	for _, tc := range []struct {
		b                  *core.Benchmark
		simulated, resumed int
	}{
		{testutil.SmallBenchmark(), 5, 0},
		{testutil.GraphBenchmark(), 1, 4},
	} {
		store := &core.TraceStore{}
		for _, settings := range [][]core.Setting{{nil}, impactSettings()} {
			got, err := core.RunBatch(pool, tc.b, settings, store)
			if err != nil {
				t.Fatal(err)
			}
			want := oneLane(t, pool, tc.b, settings)
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s %v: report diverges from its one-lane run\n got: %+v\nwant: %+v", tc.b.Name, settings[i], got[i], want[i])
				}
			}
		}
		checkStored(t, tc.b.Name+" after the baseline and the impact grid", store, tc.simulated, tc.resumed)
	}
}

// taskChunkGrid returns one setting per task factor and chunk factor, plus
// a weight lane of the first, task factors outermost.
func taskChunkGrid(taskFactors, chunkFactors []float64) []core.Setting {
	var out []core.Setting
	for _, tf := range taskFactors {
		for _, cf := range chunkFactors {
			out = append(out, core.Setting{"numTasks": tf, "chunkSize": cf})
		}
		out = append(out, core.Setting{"numTasks": tf, "chunkSize": chunkFactors[0], "weight": 1.6})
	}
	return out
}

// TestRunBatchBucketsByInput is the bucket rule of RunBatch: one call on an
// empty store, with groups at 7 and 9 tasks and chunk sizes that chunk no
// share, simulates one group of a shape whose input no task count splits
// and resumes or replays the rest, and simulates one group per task count
// of a shape whose input splits.  AlexNet (8 base tasks) simulates 1 group,
// GraphBenchmark (4 base tasks) 1 and resumes 1, and SmallBenchmark (4
// base tasks) simulates 2.  A fourth call sends GraphBenchmark at chunk
// factor 0.05 after factor 1 at one task count: 0.05 chunks the matrix, a
// fixed edge's input, so both groups start at the input stage, one after
// the other, each on its own copy of the generated input.  Every report
// must be bit-identical to a one-lane RunBatch of its setting with a fresh
// store, on both profiles and at 1, 2 and 8 workers.  -short runs AlexNet
// on the first profile only.
func TestRunBatchBucketsByInput(t *testing.T) {
	cases := []struct {
		b                  *core.Benchmark
		settings           []core.Setting
		simulated, resumed int
	}{
		{testutil.SmallBenchmark(), taskChunkGrid([]float64{1.75, 2.25}, []float64{1, 0.5}), 2, 0},
		{testutil.GraphBenchmark(), taskChunkGrid([]float64{1.75, 2.25}, []float64{1, 0.5}), 1, 1},
		{testutil.GraphBenchmark(), []core.Setting{{"numTasks": 1.75}, {"numTasks": 1.75, "chunkSize": 0.05}}, 2, 0},
		{proxy.AlexNet(), taskChunkGrid([]float64{0.875, 1.125}, []float64{1, 1.5}), 1, 0},
	}
	for pi, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			pool := testutil.Pool(np.Profile)
			for _, tc := range cases {
				if testing.Short() && pi > 0 && tc.b.Workload == "alexnet" {
					continue
				}
				want := oneLane(t, pool, tc.b, tc.settings)
				for _, workers := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(workers)
					store := &core.TraceStore{}
					got, err := core.RunBatch(pool, tc.b, tc.settings, store)
					parallel.SetWorkers(prev)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", tc.b.Name, workers, err)
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("%s workers=%d %v: report diverges from its one-lane run\n got: %+v\nwant: %+v",
								tc.b.Name, workers, tc.settings[i], got[i], want[i])
						}
					}
					checkStored(t, fmt.Sprintf("%s workers=%d", tc.b.Name, workers), store, tc.simulated, tc.resumed)
				}
			}
		})
	}
}

// TestTraceStoreConcurrentRunBatch has several goroutines call RunBatch on
// one store at once, so lookups, replays, resumes and recordings
// interleave; every report must still equal its one-lane run.  First the
// callers send SmallBenchmark's settings in different orders; then each
// resumes GraphBenchmark at a task count of its own from the one stored
// resume point.  Run it under the race detector.
func TestTraceStoreConcurrentRunBatch(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	pool := testutil.Pool(testutil.Profiles()[0].Profile)
	const callers = 4

	// callConcurrently has caller c send batches[c] on the store and
	// checks each report against want[c].
	callConcurrently := func(b *core.Benchmark, store *core.TraceStore, batches [][]core.Setting, want [][]sim.Report) {
		var wg sync.WaitGroup
		for c := range batches {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got, err := core.RunBatch(pool, b, batches[c], store)
				if err != nil {
					t.Errorf("%s caller %d: %v", b.Name, c, err)
					return
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[c][i]) {
						t.Errorf("%s caller %d: %v: report diverges from its one-lane run", b.Name, c, batches[c][i])
					}
				}
			}(c)
		}
		wg.Wait()
	}

	small := testutil.SmallBenchmark()
	settings := append([]core.Setting{nil, {"chunkSize": 0.002}}, impactSettings()...)
	wantSmall := oneLane(t, pool, small, settings)
	batches := make([][]core.Setting, callers)
	want := make([][]sim.Report, callers)
	for c := range batches {
		// Caller c starts at a different offset, so the callers reach the
		// shapes in different orders.
		for i := range settings {
			idx := (i + c*5) % len(settings)
			batches[c] = append(batches[c], settings[idx])
			want[c] = append(want[c], wantSmall[idx])
		}
	}
	callConcurrently(small, &core.TraceStore{}, batches, want)

	graph := testutil.GraphBenchmark()
	store := &core.TraceStore{}
	if _, err := core.RunBatch(pool, graph, []core.Setting{nil}, store); err != nil {
		t.Fatal(err)
	}
	for c, f := range []float64{0.25, 0.5, 2, 32} {
		batches[c] = []core.Setting{
			{"numTasks": f}, {"numTasks": f, "weight": 1.6}, {"numTasks": f, "dataSize": 0.8}, {"numTasks": f, "chunkSize": 0.5},
		}
		want[c] = oneLane(t, pool, graph, batches[c])
	}
	callConcurrently(graph, store, batches, want)
	checkStored(t, graph.Name, store, 1, callers)
}

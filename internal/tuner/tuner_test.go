package tuner

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// The proxy benchmark and cluster these tests measure with come from the
// shared internal/testutil builders (SmallBenchmark, WestmereCluster),
// which replaced the copies this file and the core/serve suites used to
// duplicate.

// selfTarget measures the proxy itself under a given setting, so the tuner
// has a reachable target.
func selfTarget(t *testing.T, setting core.Setting) perf.Metrics {
	t.Helper()
	rep, err := core.Run(testutil.WestmereCluster(), testutil.SmallBenchmark(), setting)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Metrics
}

// tuneWestmere tunes on a fresh single-node Westmere pool with a private
// memo.
func tuneWestmere(b *core.Benchmark, target perf.Metrics, opts Options) (Result, error) {
	return TuneWithPool(testutil.Pool(arch.Westmere()), b, target, opts, nil)
}

func fastOptions() Options {
	return Options{
		MaxIterations: 4,
		ImpactFactors: []float64{0.7, 1.4},
		Parameters:    []string{"dataSize", "numTasks"},
		Metrics:       []string{"IPC", "MIPS", "L1D_hit", "branch_miss", "mem_bw"},
	}
}

func TestTuneConvergesWhenTargetIsReachable(t *testing.T) {
	// Target = the proxy itself with the default setting: the baseline should
	// already be within the threshold, so the tuner must converge immediately
	// without adjustments.
	target := selfTarget(t, nil)
	res, err := tuneWestmere(testutil.SmallBenchmark(), target, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("tuner should converge on a self-target; report:\n%s", res.Report.String())
	}
	if res.Report.Average() < 0.95 {
		t.Fatalf("self-target accuracy %.3f should be near 1", res.Report.Average())
	}
	if res.Evaluations == 0 {
		t.Fatal("tuner must have evaluated the proxy")
	}
}

func TestTuneImprovesAccuracyTowardsShiftedTarget(t *testing.T) {
	// Target = the proxy with a quarter of the task parallelism: its runtime
	// stretches, so MIPS and the bandwidth metrics drop well below the
	// baseline's and the tuner has to move the numTasks factor down.
	target := selfTarget(t, core.Setting{"numTasks": 0.25})
	opts := fastOptions()
	opts.MaxIterations = 8
	opts.Threshold = 0.10

	baselineRep, err := core.Run(testutil.WestmereCluster(), testutil.SmallBenchmark(), nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := perf.CompareMetrics(target, baselineRep.Metrics, opts.Metrics)

	res, err := tuneWestmere(testutil.SmallBenchmark(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Average() < baseline.Average() {
		t.Fatalf("tuning should not reduce accuracy: baseline %.3f, tuned %.3f",
			baseline.Average(), res.Report.Average())
	}
	if res.Evaluations <= len(opts.Parameters)*len(opts.ImpactFactors) {
		t.Fatal("tuner should evaluate beyond the impact analysis")
	}
	if len(res.History) == 0 && !res.Converged {
		t.Fatal("tuner should either converge or record adjustment attempts")
	}
	// The final setting must remain valid.
	if err := res.Setting.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTuneHistoryRecordsAdjustments(t *testing.T) {
	target := selfTarget(t, core.Setting{"numTasks": 0.25})
	opts := fastOptions()
	opts.Threshold = 0.02 // hard to satisfy -> must iterate
	opts.MaxIterations = 3
	res, err := tuneWestmere(testutil.SmallBenchmark(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("a strict threshold should force at least one iteration")
	}
	for _, h := range res.History {
		if h.Parameter == "" || h.Metric == "" {
			t.Fatal("history entries must name the adjusted parameter and the triggering metric")
		}
		if h.Factor <= 0 {
			t.Fatal("adjusted factors must stay positive")
		}
	}
}

func TestTuneFailsOnBrokenBenchmark(t *testing.T) {
	b := testutil.SmallBenchmark()
	b.Edges[0].Impl = "nope"
	if _, err := tuneWestmere(b, perf.Metrics{}, fastOptions()); err == nil {
		t.Fatal("broken benchmark should surface an error")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Threshold != 0.15 {
		t.Fatalf("default threshold %g, want the paper's 15%%", o.Threshold)
	}
	if o.MaxIterations <= 0 || len(o.Metrics) == 0 || len(o.Parameters) == 0 || len(o.ImpactFactors) == 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
}

// TestTuneParallelMatchesSequential is the property the parallel pipeline
// must keep: the full Result — setting, accuracy report, history, iteration
// and evaluation counts — is bit-identical whether the impact analysis and
// tree fits run on one worker or many.
func TestTuneParallelMatchesSequential(t *testing.T) {
	target := selfTarget(t, core.Setting{"numTasks": 0.25})
	opts := fastOptions()
	opts.MaxIterations = 6
	opts.Threshold = 0.05

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	seq, err := tuneWestmere(testutil.SmallBenchmark(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel.SetWorkers(workers)
		par, err := tuneWestmere(testutil.SmallBenchmark(), target, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d result differs from sequential:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
}

// TestTuneMemoSkipsRepeatedSettings proves the memo hit path: duplicated
// impact factors request the same setting twice, but only distinct settings
// are ever simulated.
func TestTuneMemoSkipsRepeatedSettings(t *testing.T) {
	target := selfTarget(t, nil)
	opts := fastOptions()
	opts.ImpactFactors = []float64{0.7, 0.7, 1.4} // one duplicated perturbation per parameter
	res, err := tuneWestmere(testutil.SmallBenchmark(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 2 distinct factors x 2 parameters; the duplicates must be
	// memo hits, not fresh simulations.
	wantUnique := 1 + 2*len(opts.Parameters)
	if res.Evaluations != wantUnique {
		t.Fatalf("Evaluations = %d, want %d distinct simulations", res.Evaluations, wantUnique)
	}
	if res.MemoHits < len(opts.Parameters) {
		t.Fatalf("MemoHits = %d, want at least one per duplicated parameter (%d)", res.MemoHits, len(opts.Parameters))
	}
}

// TestMemoSingleflight drives the Memo directly: a repeated key performs
// zero new simulation, even under concurrent lookups.
func TestMemoSingleflight(t *testing.T) {
	memo := NewMemo()
	var runs atomic.Int64
	run := func() (perf.Metrics, error) {
		runs.Add(1)
		return perf.Metrics{IPC: 1.5}, nil
	}
	fresh := make([]bool, 16)
	parallel.For(len(fresh), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m, f, err := memo.Measure("same-key", run)
			if err != nil || m.IPC != 1.5 {
				t.Errorf("Measure returned %v, %v", m, err)
			}
			fresh[i] = f
		}
	})
	if got := runs.Load(); got != 1 {
		t.Fatalf("run executed %d times, want exactly 1", got)
	}
	freshCount := 0
	for _, f := range fresh {
		if f {
			freshCount++
		}
	}
	if freshCount != 1 {
		t.Fatalf("%d callers observed fresh=true, want exactly 1", freshCount)
	}
	if memo.Size() != 1 {
		t.Fatalf("memo size %d, want 1", memo.Size())
	}
	if _, f, _ := memo.Measure("same-key", run); f || runs.Load() != 1 {
		t.Fatal("a later lookup of a measured key must not simulate again")
	}
}

// TestMemoPeek checks the non-blocking read path the serving layer answers
// cached requests from: PeekBytes never executes anything, misses on
// unknown and in-flight keys, and hits completed keys (errors included).
func TestMemoPeek(t *testing.T) {
	memo := NewMemo()
	if _, ok, _ := memo.PeekBytes([]byte("absent")); ok {
		t.Fatal("PeekBytes of an unknown key must miss")
	}

	inFlight := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = memo.Measure("slow", func() (perf.Metrics, error) {
			close(inFlight)
			<-release
			return perf.Metrics{IPC: 2}, nil
		})
	}()
	<-inFlight
	if _, ok, _ := memo.PeekBytes([]byte("slow")); ok {
		t.Fatal("PeekBytes of an in-flight key must miss, not block or return partial data")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, ok, err := memo.PeekBytes([]byte("slow")); ok {
			if err != nil || m.IPC != 2 {
				t.Fatalf("PeekBytes returned %v, %v", m, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PeekBytes never observed the completed measurement")
		}
	}

	wantErr := fmt.Errorf("setting rejected")
	_, _, _ = memo.Measure("failing", func() (perf.Metrics, error) { return perf.Metrics{}, wantErr })
	if _, ok, err := memo.PeekBytes([]byte("failing")); !ok || err == nil {
		t.Fatal("PeekBytes must replay cached errors so failing settings are not retried")
	}
}

// TestMemoMeasurePanicCachesError checks a panicking measurement cannot
// poison its entry: the panicked call consumes the claim, so the entry must
// replay an error afterwards instead of a zero Metrics with a nil error.
func TestMemoMeasurePanicCachesError(t *testing.T) {
	memo := NewMemo()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Measure must re-raise the measurement panic to its first caller")
			}
		}()
		_, _, _ = memo.Measure("boom", func() (perf.Metrics, error) { panic("kaboom") })
	}()
	if _, fresh, err := memo.Measure("boom", func() (perf.Metrics, error) { return perf.Metrics{IPC: 1}, nil }); fresh || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("later Measure got fresh=%v err=%v, want the cached panic error", fresh, err)
	}
	if _, ok, err := memo.PeekBytes([]byte("boom")); !ok || err == nil {
		t.Fatalf("PeekBytes got ok=%v err=%v, want the cached panic error", ok, err)
	}
}

// TestMemoKeyFingerprintsFullClusterConfig guards against memo aliasing:
// any cluster-configuration field that changes simulation results must
// change the key, not just the configuration's display name.
func TestMemoKeyFingerprintsFullClusterConfig(t *testing.T) {
	b := testutil.SmallBenchmark()
	base := sim.SingleNode(arch.Westmere(), 0)
	ref := MemoKey(sim.MustNewCluster(base), b, nil)

	sampled := base
	sampled.EventSampleRate = 16
	if MemoKey(sim.MustNewCluster(sampled), b, nil) == ref {
		t.Fatal("EventSampleRate must be part of the memo key")
	}
	capped := base
	capped.MaxModelOpsPerCall = 7
	if MemoKey(sim.MustNewCluster(capped), b, nil) == ref {
		t.Fatal("MaxModelOpsPerCall must be part of the memo key")
	}
	if MemoKey(sim.MustNewCluster(sim.SingleNode(arch.Haswell(), 0)), b, nil) == ref {
		t.Fatal("the architecture profile must be part of the memo key")
	}
	if MemoKey(sim.MustNewCluster(base), b, core.Setting{"dataSize": 0.5}) == ref {
		t.Fatal("the setting must be part of the memo key")
	}
	if MemoKey(sim.MustNewCluster(base), b, nil) != ref {
		t.Fatal("identical configurations must share a key")
	}
}

// TestTuneAllQualifiesAcrossArchitectures runs the cross-architecture
// qualification on both stock profiles against per-profile self-targets.
func TestTuneAllQualifiesAcrossArchitectures(t *testing.T) {
	profiles := []arch.Profile{arch.Westmere(), arch.Haswell()}
	targets := make([]Target, len(profiles))
	for i, p := range profiles {
		rep, err := core.Run(sim.MustNewCluster(sim.SingleNode(p, 0)), testutil.SmallBenchmark(), nil)
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = Target{Profile: p, Metrics: rep.Metrics}
	}
	results, err := TuneAll(testutil.SmallBenchmark(), targets, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, r := range results {
		if r.Profile.Name != profiles[i].Name {
			t.Fatalf("result %d is for %q, want %q", i, r.Profile.Name, profiles[i].Name)
		}
		if !r.Result.Converged {
			t.Errorf("%s: self-target should converge; report:\n%s", r.Profile.Name, r.Result.Report.String())
		}
		if r.Result.Evaluations == 0 {
			t.Errorf("%s: no simulations executed", r.Profile.Name)
		}
	}
	matrix := FormatAccuracyMatrix(results, nil)
	for _, want := range []string{"Westmere", "Haswell", "average", "converged", "IPC"} {
		if !strings.Contains(matrix, want) {
			t.Errorf("accuracy matrix missing %q:\n%s", want, matrix)
		}
	}
	if _, err := TuneAll(testutil.SmallBenchmark(), nil, fastOptions()); err == nil {
		t.Fatal("TuneAll without targets should be rejected")
	}

	// Against shifted targets the adjust loop iterates, and each concurrent
	// per-profile tune on the shared memo must still equal a lone
	// TuneWithPool on a fresh pool of its profile, at any worker count.
	for i, p := range profiles {
		rep, err := core.Run(testutil.Cluster(p), testutil.SmallBenchmark(), core.Setting{"numTasks": 0.5})
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = Target{Profile: p, Metrics: rep.Metrics}
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, workers := range []int{1, 8} {
		parallel.SetWorkers(workers)
		results, err := TuneAll(testutil.SmallBenchmark(), targets, fastOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range profiles {
			want, err := TuneWithPool(testutil.Pool(p), testutil.SmallBenchmark(), targets[i].Metrics, fastOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.Iterations == 0 {
				t.Fatalf("%s: the shifted target did not exercise the adjust loop", p.Name)
			}
			if !reflect.DeepEqual(results[i].Result, want) {
				t.Fatalf("workers=%d %s: TuneAll differs from TuneWithPool:\nall:  %+v\npool: %+v", workers, p.Name, results[i].Result, want)
			}
		}
	}
}

// Package tuner implements the auto-tuning tool of Section II-B: given a
// proxy benchmark and the metric profile of the real workload it should
// mimic, the tuner performs an impact analysis (perturb one tunable
// parameter at a time and observe the metric response), fits a decision tree
// per metric on those observations, and then iterates an adjusting stage
// (pick the parameter the trees say will best fix the worst-deviating
// metric) and a feedback stage (re-measure accuracy) until every metric's
// deviation is within the threshold or the iteration budget is exhausted.
//
// TuneWithPool is the one tune entry point.  The pipeline is batched,
// parallel and memoized: every measurement goes through a MemoEvaluator,
// which evaluates a whole batch of settings in one trace-sharing
// core.RunBatch sweep — settings differing only in extrapolation parameters
// share their motif compute — while distinct traces fan out over the shared
// worker pool (internal/parallel) on pooled clusters, and a singleflight
// Memo keyed by (benchmark, canonical setting, architecture profile)
// guarantees that no setting is ever simulated twice, as the tune's
// evaluator's trace store does for traces.  Results are
// bit-identical to one-at-a-time evaluation at any worker count and batch
// size.  TuneAll qualifies one proxy per architecture profile concurrently,
// reproducing the paper's cross-system validation.
package tuner

import (
	"fmt"
	"math"

	"dataproxy/internal/core"
	"dataproxy/internal/dtree"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// Options controls the tuning process.
type Options struct {
	// Threshold is the accepted relative deviation per metric, as a fraction
	// in (0, 1] (the paper uses 15%).  Zero selects the default 0.15.
	Threshold float64
	// MaxIterations bounds the adjust/feedback loop.  Zero selects the
	// default 12.
	MaxIterations int
	// Metrics selects the metric names (perf.MetricNames) to match.  Empty
	// selects perf.DefaultAccuracyMetrics.
	Metrics []string
	// Parameters selects which tunable parameters (core.ParameterNames) may
	// be adjusted.  Empty selects dataSize, chunkSize, numTasks and weight.
	Parameters []string
	// ImpactFactors are the multiplicative perturbations applied to each
	// parameter during impact analysis.  Empty selects 0.6, 0.8, 1.25, 1.6.
	ImpactFactors []float64
}

// step is the multiplicative adjustment tried per iteration (its
// reciprocal is tried too), and minFactor/maxFactor clamp every adjusted
// parameter factor.  step is typed so that 1/step rounds like a run-time
// division of the float64 1.3, not like the exact constant 10/13.
const (
	step      float64 = 1.3
	minFactor         = 0.2
	maxFactor         = 5
)

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 0.15
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 12
	}
	if len(o.Metrics) == 0 {
		o.Metrics = perf.DefaultAccuracyMetrics
	}
	if len(o.Parameters) == 0 {
		o.Parameters = []string{"dataSize", "chunkSize", "numTasks", "weight"}
	}
	if len(o.ImpactFactors) == 0 {
		o.ImpactFactors = []float64{0.6, 0.8, 1.25, 1.6}
	}
	return o
}

// Iteration records one adjust/feedback round.
type Iteration struct {
	// Metric is the worst-deviating metric that triggered the adjustment.
	Metric string
	// Parameter is the tunable parameter that was adjusted and its new factor.
	Parameter string
	Factor    float64
	// Average and Worst describe the accuracy after the adjustment.
	Average float64
	Worst   float64
}

// Result is the outcome of tuning one proxy benchmark.
type Result struct {
	// Setting is the qualified proxy benchmark's final parameter setting.
	Setting core.Setting
	// Report is the accuracy report of the final setting against the target.
	Report perf.AccuracyReport
	// ProxyMetrics are the final proxy metrics (including runtime, which is
	// reported as the speedup rather than matched).
	ProxyMetrics perf.Metrics
	// Converged indicates every metric deviation was within the threshold.
	Converged bool
	// Iterations is the number of adjust/feedback rounds executed.
	Iterations int
	// History records each round.
	History []Iteration
	// Evaluations counts how many distinct settings were simulated fresh on
	// behalf of this tune (impact analysis + feedback evaluations); batched
	// settings on the same trace still count individually even though they
	// share motif compute.  Settings recalled from the measurement memo are
	// counted in MemoHits instead and perform zero new simulation.
	Evaluations int
	// MemoHits counts the evaluations served from the measurement memo.
	MemoHits int
}

// TuneWithPool runs the full auto-tuning process of the paper's Figure 3
// for one proxy benchmark against the target metrics measured on the real
// workload.  Every executed simulation is drawn from the caller's cluster
// pool, so a long-lived service running tune after tune (the proxyd
// dispatcher) reuses the same recycled clusters across jobs; the pool's
// prototype is only ever read.  memo is the measurement memo the tune
// shares (nil: a private one), so several tunes of the same benchmark —
// the per-profile tunes of TuneAll, or a re-tune with a tighter threshold —
// never simulate a setting twice.  The memo keys include the benchmark,
// cluster and architecture profile, so sharing a memo across different
// targets is always safe.
func TuneWithPool(pool *sim.ClusterPool, b *core.Benchmark, target perf.Metrics, opts Options, memo *Memo) (res Result, err error) {
	opts = opts.withDefaults()
	res = Result{Setting: core.DefaultSetting()}
	ev := NewEvaluator(pool, b, memo)
	// measure evaluates one stage's settings and accounts each fresh flag.
	// Every stage runs sequentially on this goroutine (the batching inside
	// the evaluator supplies the parallelism), so the counters need no
	// synchronisation.
	measure := func(settings ...core.Setting) ([]perf.Metrics, error) {
		ms, fresh, err := ev.Evaluate(settings)
		for _, f := range fresh {
			if f {
				res.Evaluations++
			} else {
				res.MemoHits++
			}
		}
		return ms, err
	}

	// Baseline evaluation with the initial weights/parameters.
	ms, err := measure(res.Setting)
	if err != nil {
		return res, fmt.Errorf("tuner: baseline evaluation failed: %w", err)
	}
	baseline := ms[0]

	// --- Impact analysis: perturb one parameter at a time.  The
	// perturbations evaluate as one batch through the evaluator, which
	// shares motif compute between settings on the same trace and fans
	// distinct traces out over the worker pool; the observations are
	// recorded in canonical (parameter, factor) order so the decision trees
	// are fitted on exactly the sample sequence the sequential path
	// produces.
	samples := map[string][]dtree.Sample{}
	record := func(s core.Setting, m perf.Metrics) {
		feat := featureVector(s, opts.Parameters)
		for _, name := range opts.Metrics {
			samples[name] = append(samples[name], dtree.Sample{Features: feat, Target: m.Get(name)})
		}
	}
	record(res.Setting, baseline)

	type impactJob struct {
		param  string
		factor float64
	}
	jobs := make([]impactJob, 0, len(opts.Parameters)*len(opts.ImpactFactors))
	for _, p := range opts.Parameters {
		for _, f := range opts.ImpactFactors {
			jobs = append(jobs, impactJob{param: p, factor: f})
		}
	}
	perturbed := make([]core.Setting, len(jobs))
	for i, j := range jobs {
		s := res.Setting.Clone()
		s[j.param] = j.factor
		perturbed[i] = s
	}
	observations, err := measure(perturbed...)
	if err != nil {
		return res, fmt.Errorf("tuner: impact analysis failed: %w", err)
	}
	for i, s := range perturbed {
		record(s, observations[i])
	}
	trees, err := fitTrees(samples, opts.Metrics)
	if err != nil {
		return res, err
	}

	// --- Adjust / feedback loop.
	current := res.Setting.Clone()
	metrics := baseline
	for iter := 0; iter < opts.MaxIterations; iter++ {
		report := perf.CompareMetrics(target, metrics, opts.Metrics)
		res.Report = report
		res.ProxyMetrics = metrics
		worstMetric, worstAcc := report.Worst()
		if 1-worstAcc <= opts.Threshold {
			res.Converged = true
			break
		}
		res.Iterations = iter + 1

		// Adjusting stage: ask the decision tree which parameter move brings
		// the worst metric closest to the target.
		param, factor := bestMove(trees[worstMetric], current, target.Get(worstMetric), opts)
		if param == "" {
			break
		}
		candidate := current.Clone()
		candidate[param] = factor

		// Feedback stage: evaluate the adjusted proxy benchmark.  A
		// candidate the loop has already visited (e.g. a re-proposed
		// rejected move) comes straight from the memo.
		ms, err := measure(candidate)
		if err != nil {
			return res, fmt.Errorf("tuner: feedback evaluation failed: %w", err)
		}
		m := ms[0]
		record(candidate, m)
		// Refit the worst metric's tree with the new observation.
		if t, ferr := dtree.Fit(samples[worstMetric], dtree.Config{}); ferr == nil {
			trees[worstMetric] = t
		}

		newReport := perf.CompareMetrics(target, m, opts.Metrics)
		res.History = append(res.History, Iteration{
			Metric:    worstMetric,
			Parameter: param,
			Factor:    factor,
			Average:   newReport.Average(),
			Worst:     newReport.WorstAccuracy(),
		})
		// Accept the move only if it does not reduce the average accuracy;
		// otherwise keep the previous setting and let the next iteration try
		// a different move with the enriched training data.
		if newReport.Average() >= report.Average() {
			current = candidate
			metrics = m
		}
	}
	// Final report for the setting we ended on.
	final := perf.CompareMetrics(target, metrics, opts.Metrics)
	res.Setting = current
	res.Report = final
	res.ProxyMetrics = metrics
	if 1-final.WorstAccuracy() <= opts.Threshold {
		res.Converged = true
	}
	return res, nil
}

func featureVector(s core.Setting, params []string) []float64 {
	v := make([]float64, len(params))
	for i, p := range params {
		v[i] = s.Get(p)
	}
	return v
}

// fitTrees fits one regression tree per metric.  The fits are independent,
// so they fan out over the worker pool; the first error in metric order is
// returned.
func fitTrees(samples map[string][]dtree.Sample, metrics []string) (map[string]*dtree.Tree, error) {
	fitted := make([]*dtree.Tree, len(metrics))
	errs := make([]error, len(metrics))
	parallel.For(len(metrics), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fitted[i], errs[i] = dtree.Fit(samples[metrics[i]], dtree.Config{})
		}
	})
	trees := make(map[string]*dtree.Tree, len(metrics))
	for i, name := range metrics {
		if errs[i] != nil {
			return nil, fmt.Errorf("tuner: fitting decision tree for %s: %w", name, errs[i])
		}
		trees[name] = fitted[i]
	}
	return trees, nil
}

// bestMove evaluates candidate single-parameter adjustments with the metric's
// decision tree and returns the move predicted to land closest to the target
// value.
func bestMove(tree *dtree.Tree, current core.Setting, target float64, opts Options) (string, float64) {
	if tree == nil {
		return "", 0
	}
	importance := tree.FeatureImportance()
	bestParam := ""
	bestFactor := 0.0
	bestDist := -1.0
	for i, p := range opts.Parameters {
		for _, dir := range []float64{step, 1 / step} {
			factor := perf.Clamp(current.Get(p)*dir, minFactor, maxFactor)
			if factor == current.Get(p) {
				continue
			}
			candidate := current.Clone()
			candidate[p] = factor
			feat := featureVector(candidate, opts.Parameters)
			predicted := tree.Predict(feat)
			dist := math.Abs(predicted - target)
			// Prefer parameters the tree considers influential for this
			// metric; break ties toward earlier (coarser) parameters.
			weighted := dist * (1.1 - 0.1*importance[i])
			if bestDist < 0 || weighted < bestDist {
				bestDist = weighted
				bestParam = p
				bestFactor = factor
			}
		}
	}
	return bestParam, bestFactor
}

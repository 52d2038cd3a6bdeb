package tuner

import (
	"fmt"
	"sort"
	"strings"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// Target is one architecture a proxy benchmark must be qualified on: the
// processor profile and the metric vector of the real workload measured on a
// cluster of that generation.
type Target struct {
	// Profile is the processor generation the proxy is tuned for.
	Profile arch.Profile
	// Metrics is the real workload's metric vector on this architecture.
	Metrics perf.Metrics
}

// ArchResult pairs one architecture profile with the tuning outcome of the
// proxy benchmark on it.
type ArchResult struct {
	Profile arch.Profile
	Result  Result
}

// TuneAll qualifies one proxy benchmark on several architecture profiles:
// each target is tuned independently on a single-node cluster of its
// profile, concurrently on the shared worker pool, mirroring how the paper
// validates proxies on multiple Xeon systems (Section IV-C).  All tunes
// share one measurement memo — the profile is part of every memo key, so
// identical settings on different architectures never collide while repeated
// settings within one architecture are simulated only once.  Results are in
// target order; the first error in target order is returned.
func TuneAll(b *core.Benchmark, targets []Target, opts Options) ([]ArchResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("tuner: TuneAll needs at least one target architecture")
	}
	memo := NewMemo()
	results := make([]ArchResult, len(targets))
	errs := make([]error, len(targets))
	parallel.For(len(targets), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := targets[i]
			cluster, err := sim.NewCluster(sim.SingleNode(t.Profile, 0))
			if err != nil {
				errs[i] = err
				continue
			}
			res, err := TuneWithPool(sim.NewClusterPool(cluster), b, t.Metrics, opts, memo)
			results[i] = ArchResult{Profile: t.Profile, Result: res}
			errs[i] = err
		}
	})
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("tuner: tuning on %s: %w", targets[i].Profile.Name, err)
		}
	}
	return results, nil
}

// FormatAccuracyMatrix renders the per-profile accuracy matrix of a TuneAll
// run: one row per metric, one column per architecture profile, plus summary
// rows (average and worst accuracy, convergence, iteration and evaluation
// counts).  metrics selects and orders the metric rows; nil uses the sorted
// union of the results' per-metric reports.
func FormatAccuracyMatrix(results []ArchResult, metrics []string) string {
	if len(results) == 0 {
		return ""
	}
	if len(metrics) == 0 {
		seen := map[string]bool{}
		for _, r := range results {
			for name := range r.Result.Report.PerMetric {
				seen[name] = true
			}
		}
		for name := range seen {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
	}

	header := make([]string, 0, len(results)+1)
	header = append(header, "Metric accuracy")
	for _, r := range results {
		header = append(header, r.Profile.Name)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	var rows [][]string
	addRow := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		rows = append(rows, cells)
	}
	for _, name := range metrics {
		cells := []string{name}
		for _, r := range results {
			if v, ok := r.Result.Report.PerMetric[name]; ok {
				cells = append(cells, fmt.Sprintf("%.3f", v))
			} else {
				cells = append(cells, "-")
			}
		}
		addRow(cells)
	}
	addRow(summaryRow("average", results, func(r Result) string {
		return fmt.Sprintf("%.3f", r.Report.Average())
	}))
	addRow(summaryRow("worst", results, func(r Result) string {
		name, v := r.Report.Worst()
		return fmt.Sprintf("%.3f (%s)", v, name)
	}))
	addRow(summaryRow("converged", results, func(r Result) string {
		return fmt.Sprintf("%v", r.Converged)
	}))
	addRow(summaryRow("iterations", results, func(r Result) string {
		return fmt.Sprintf("%d", r.Iterations)
	}))
	addRow(summaryRow("simulations", results, func(r Result) string {
		return fmt.Sprintf("%d (+%d memoized)", r.Evaluations, r.MemoHits)
	}))

	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func summaryRow(label string, results []ArchResult, cell func(Result) string) []string {
	cells := []string{label}
	for _, r := range results {
		cells = append(cells, cell(r.Result))
	}
	return cells
}

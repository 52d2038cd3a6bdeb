package experiments

import (
	"fmt"

	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
)

// AccuracyRow is one workload's per-metric accuracy (Figures 4, 8, 9).
type AccuracyRow struct {
	Workload  string
	PerMetric map[string]float64
	Average   float64
}

func (s *Suite) accuracyRows(key clusterKey) ([]AccuracyRow, error) {
	rows := make([]AccuracyRow, len(WorkloadOrder))
	err := forEachWorkload(func(i int, short string) error {
		realRep, proxM, err := s.reportPair(short, key)
		if err != nil {
			return err
		}
		rep := perf.CompareMetrics(realRep.Metrics, proxM, nil)
		rows[i] = AccuracyRow{
			Workload:  displayName(short),
			PerMetric: rep.PerMetric,
			Average:   rep.Average(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure4 reproduces Figure 4: per-workload system and micro-architectural
// data accuracy of the proxy benchmarks on the five-node Westmere cluster.
func (s *Suite) Figure4() ([]AccuracyRow, error) { return s.accuracyRows(fiveNodeWestmere) }

// Figure9 reproduces Figure 9: accuracy on the new (three-node, 64 GB)
// cluster configuration using the same proxy benchmarks.
func (s *Suite) Figure9() ([]AccuracyRow, error) { return s.accuracyRows(threeNodeWestmere) }

// FormatAccuracyRows renders accuracy rows with the overall average.
func FormatAccuracyRows(title string, rows []AccuracyRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Workload, fmt.Sprintf("%.1f%%", r.Average*100)})
	}
	out := title + "\n" + formatTable([]string{"Workload", "Average accuracy"}, cells)
	for _, r := range rows {
		out += fmt.Sprintf("\n%s per-metric accuracy:\n", r.Workload)
		var mcells [][]string
		for _, name := range sortedMetricNames(r.PerMetric) {
			mcells = append(mcells, []string{name, fmt.Sprintf("%.3f", r.PerMetric[name])})
		}
		out += formatTable([]string{"Metric", "Accuracy"}, mcells)
	}
	return out
}

// MixRow is one bar of Figure 5: the instruction mix breakdown of a real or
// proxy benchmark.
type MixRow struct {
	Name   string
	Load   float64
	Store  float64
	Branch float64
	Int    float64
	Float  float64
}

func mixRow(name string, m perf.Metrics) MixRow {
	return MixRow{
		Name:   name,
		Load:   m.LoadRatio,
		Store:  m.StoreRatio,
		Branch: m.BranchRatio,
		Int:    m.IntRatio,
		Float:  m.FloatRatio,
	}
}

// Figure5 reproduces Figure 5: the instruction mix breakdown of each real
// workload and its proxy benchmark on the five-node Westmere cluster.
func (s *Suite) Figure5() ([]MixRow, error) {
	rows := make([]MixRow, 2*len(WorkloadOrder))
	err := forEachWorkload(func(i int, short string) error {
		realRep, proxM, err := s.reportPair(short, fiveNodeWestmere)
		if err != nil {
			return err
		}
		rows[2*i] = mixRow("Hadoop/TF "+displayName(short), realRep.Metrics)
		rows[2*i+1] = mixRow("Proxy "+displayName(short), proxM)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatMixRows renders Figure 5 rows.
func FormatMixRows(rows []MixRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			fmt.Sprintf("%.1f%%", r.Load*100),
			fmt.Sprintf("%.1f%%", r.Store*100),
			fmt.Sprintf("%.1f%%", r.Branch*100),
			fmt.Sprintf("%.1f%%", r.Int*100),
			fmt.Sprintf("%.1f%%", r.Float*100),
		})
	}
	return "Figure 5: Instruction Mix Breakdown on Xeon E5645\n" +
		formatTable([]string{"Benchmark", "Load", "Store", "Branch", "Integer", "Floating point"}, cells)
}

// DiskRow is one pair of bars of Figure 6: real vs proxy disk I/O bandwidth.
type DiskRow struct {
	Workload  string
	RealMBps  float64
	ProxyMBps float64
}

// Figure6 reproduces Figure 6: average disk I/O bandwidth of the real and
// proxy benchmarks.
func (s *Suite) Figure6() ([]DiskRow, error) {
	rows := make([]DiskRow, len(WorkloadOrder))
	err := forEachWorkload(func(i int, short string) error {
		realRep, proxM, err := s.reportPair(short, fiveNodeWestmere)
		if err != nil {
			return err
		}
		rows[i] = DiskRow{
			Workload:  displayName(short),
			RealMBps:  realRep.Metrics.DiskBW / 1e6,
			ProxyMBps: proxM.DiskBW / 1e6,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatDiskRows renders Figure 6 rows.
func FormatDiskRows(rows []DiskRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%.2f", r.RealMBps),
			fmt.Sprintf("%.2f", r.ProxyMBps),
		})
	}
	return "Figure 6: Disk I/O Bandwidth on Xeon E5645 (MB/s)\n" +
		formatTable([]string{"Workload", "Real", "Proxy"}, cells)
}

// Figure7Result reproduces Figure 7: the memory bandwidth of Hadoop K-means
// driven by sparse (90% zero) and dense (0% zero) input vectors.
type Figure7Result struct {
	SparseReadBW  float64
	SparseWriteBW float64
	SparseMemBW   float64
	DenseReadBW   float64
	DenseWriteBW  float64
	DenseMemBW    float64
}

// Figure7 measures the data-impact experiment on the real Hadoop K-means.
// The sparse and dense runs are independent and execute concurrently.
func (s *Suite) Figure7() (Figure7Result, error) {
	var sparse, dense sim.Report
	var sparseErr, denseErr error
	parallel.Do(
		func() { sparse, sparseErr = s.realReport("kmeans", fiveNodeWestmere) },
		func() { dense, denseErr = s.realKMeansDense() },
	)
	if err := sparseErr; err != nil {
		return Figure7Result{}, err
	}
	if err := denseErr; err != nil {
		return Figure7Result{}, err
	}
	return Figure7Result{
		SparseReadBW:  sparse.Metrics.ReadBW,
		SparseWriteBW: sparse.Metrics.WriteBW,
		SparseMemBW:   sparse.Metrics.MemBW,
		DenseReadBW:   dense.Metrics.ReadBW,
		DenseWriteBW:  dense.Metrics.WriteBW,
		DenseMemBW:    dense.Metrics.MemBW,
	}, nil
}

func (s *Suite) realKMeansDense() (sim.Report, error) {
	return s.realReports.get(s.cacheID("kmeans-dense", fiveNodeWestmere), func() (sim.Report, error) {
		cfg := workloads.DefaultKMeans()
		cfg.Sparsity = 0
		cluster, err := sim.NewCluster(clusterConfig(fiveNodeWestmere))
		if err != nil {
			return sim.Report{}, err
		}
		if err := workloads.KMeans(cfg).Run(cluster); err != nil {
			return sim.Report{}, err
		}
		return cluster.Report("Hadoop K-means (dense)"), nil
	})
}

// FormatFigure7 renders the sparse/dense memory bandwidth comparison.
func FormatFigure7(r Figure7Result) string {
	cells := [][]string{
		{"Read bandwidth", fmt.Sprintf("%.2f", r.SparseReadBW/1e9), fmt.Sprintf("%.2f", r.DenseReadBW/1e9)},
		{"Write bandwidth", fmt.Sprintf("%.2f", r.SparseWriteBW/1e9), fmt.Sprintf("%.2f", r.DenseWriteBW/1e9)},
		{"Total bandwidth", fmt.Sprintf("%.2f", r.SparseMemBW/1e9), fmt.Sprintf("%.2f", r.DenseMemBW/1e9)},
	}
	return "Figure 7: Data Impact on Memory Bandwidth for Hadoop K-means (GB/s)\n" +
		formatTable([]string{"Metric", "Sparse (90%)", "Dense (0%)"}, cells)
}

// Figure8Result reproduces Figure 8: the accuracy of the single generated
// Proxy K-means against Hadoop K-means when both are driven by sparse and by
// dense input data.
type Figure8Result struct {
	Sparse AccuracyRow
	Dense  AccuracyRow
}

// Figure8 evaluates the same proxy benchmark under both input sparsities.
// The two real measurements and the sparse proxy measurement are
// independent, so they run concurrently on the worker pool.
func (s *Suite) Figure8() (Figure8Result, error) {
	var realSparse, realDense sim.Report
	var proxSparse perf.Metrics
	var sparseErr, proxErr, denseErr error
	parallel.Do(
		// Sparse case: the regular Figure 4 measurement.
		func() { realSparse, sparseErr = s.realReport("kmeans", fiveNodeWestmere) },
		func() { proxSparse, proxErr = s.proxyMetrics("kmeans", fiveNodeWestmere) },
		// Dense case input: the dense real workload.
		func() { realDense, denseErr = s.realKMeansDense() },
	)
	for _, err := range []error{sparseErr, proxErr, denseErr} {
		if err != nil {
			return Figure8Result{}, err
		}
	}
	sparseRep := perf.CompareMetrics(realSparse.Metrics, proxSparse, nil)

	// Dense case: the same proxy benchmark (same DAG, weights and setting),
	// driven by dense input data, against the dense real workload.  The
	// dense variant shares the sparse default's benchmark Name, so it must
	// not share the suite's memo (the keys would alias the sparse results);
	// a throwaway evaluator with a private memo keeps it isolated while
	// still going through the one evaluation entry point.
	b := proxy.KMeansWithSparsity(0)
	setting, err := s.settingFor("kmeans", b)
	if err != nil {
		return Figure8Result{}, err
	}
	pool, err := s.proxyPool(fiveNodeWestmere)
	if err != nil {
		return Figure8Result{}, err
	}
	proxDense, _, err := tuner.NewEvaluator(pool, b, nil).Evaluate([]core.Setting{setting})
	if err != nil {
		return Figure8Result{}, err
	}
	denseRep := perf.CompareMetrics(realDense.Metrics, proxDense[0], nil)

	return Figure8Result{
		Sparse: AccuracyRow{Workload: "K-means (90% sparse input)", PerMetric: sparseRep.PerMetric, Average: sparseRep.Average()},
		Dense:  AccuracyRow{Workload: "K-means (dense input)", PerMetric: denseRep.PerMetric, Average: denseRep.Average()},
	}, nil
}

// SpeedupRow is one pair of bars of Figure 10: the Westmere-to-Haswell
// runtime speedup of the real workload and of its proxy benchmark.
type SpeedupRow struct {
	Workload     string
	RealSpeedup  float64
	ProxySpeedup float64
}

// Figure10 reproduces Figure 10: runtime speedup across the Westmere and
// Haswell processors for the real workloads and the (recompiled, otherwise
// identical) proxy benchmarks, both on the three-node cluster.  All four
// measurements of every workload are independent and run concurrently on
// the worker pool.
func (s *Suite) Figure10() ([]SpeedupRow, error) {
	rows := make([]SpeedupRow, len(WorkloadOrder))
	err := forEachWorkload(func(i int, short string) error {
		var realWest, realHas sim.Report
		var proxWest, proxHas perf.Metrics
		errs := make([]error, 4)
		parallel.Do(
			func() { realWest, errs[0] = s.realReport(short, threeNodeWestmere) },
			func() { realHas, errs[1] = s.realReport(short, threeNodeHaswell) },
			func() { proxWest, errs[2] = s.proxyMetrics(short, threeNodeWestmere) },
			func() { proxHas, errs[3] = s.proxyMetrics(short, threeNodeHaswell) },
		)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		rows[i] = SpeedupRow{
			Workload:     displayName(short),
			RealSpeedup:  sim.Speedup(realWest.Runtime, realHas.Runtime),
			ProxySpeedup: sim.Speedup(proxWest.Runtime, proxHas.Runtime),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatSpeedupRows renders Figure 10 rows.
func FormatSpeedupRows(rows []SpeedupRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%.2f", r.RealSpeedup),
			fmt.Sprintf("%.2f", r.ProxySpeedup),
		})
	}
	return "Figure 10: Runtime Speedup across Westmere and Haswell Processors\n" +
		formatTable([]string{"Workload", "Real speedup", "Proxy speedup"}, cells)
}

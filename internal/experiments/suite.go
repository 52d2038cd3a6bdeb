// Package experiments reproduces every table and figure of the paper's
// evaluation (Section III) and case studies (Section IV): runtime speedups
// (Table VI, Table VII), system and micro-architectural accuracy (Figures 4,
// 8, 9), instruction mix (Figure 5), disk I/O bandwidth (Figure 6), the
// input-data sparsity study (Figures 7 and 8), and the cross-architecture
// speedup comparison (Figure 10), plus the descriptive tables (I-V).
//
// All results are produced by running the real-workload models and the
// generated proxy benchmarks on the simulated clusters; absolute values
// therefore differ from the paper's hardware measurements, but the harness
// reproduces the shape of every result: which side wins, by roughly what
// factor, and how the trends move across data sets, cluster configurations
// and processor generations.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
)

// WorkloadOrder is the paper's ordering of the five workloads.
var WorkloadOrder = []string{"terasort", "kmeans", "pagerank", "alexnet", "inception"}

// Suite runs and caches the real-workload and proxy-benchmark measurements
// that the individual tables and figures are derived from, so that
// regenerating several tables does not re-execute the same workloads.
//
// Caching is per-key singleflight rather than one suite-wide lock: each
// (workload, cluster) measurement runs at most once, and independent
// measurements — different workloads, different cluster configurations, the
// real run and the proxy run of the same workload — execute concurrently on
// the shared worker pool when tables are generated.  All methods are safe
// for concurrent use.
type Suite struct {
	// Tune enables auto-tuning of each proxy benchmark against its real
	// workload, with the tuner's default options, before the accuracy
	// figures are produced.
	Tune bool
	// Short selects the reduced-sampling workload configurations (fewer AI
	// training steps, less host-side sampled compute) used by -short test
	// runs.  Virtual results keep the paper's orders of magnitude.
	Short bool

	realReports reportCache

	settingsMu sync.Mutex
	settings   map[string]*settingEntry

	// proxyPools recycles the single-node proxy clusters per processor
	// generation, so regenerating many tables and tuning runs stops
	// allocating a fresh cluster per measurement; proxyMemos are the
	// matching per-generation measurement memos through which every proxy
	// evaluation — tables, figures and tuning alike — is keyed, so a tuned
	// setting evaluated during the tune is never re-simulated for a table.
	poolsMu    sync.Mutex
	proxyPools map[string]*sim.ClusterPool
	proxyMemos map[string]*tuner.Memo
}

// NewSuite returns an empty suite.
func NewSuite() *Suite {
	return &Suite{settings: make(map[string]*settingEntry)}
}

// reportCache is a per-key singleflight cache of cluster reports: the first
// caller of a key runs the measurement, concurrent callers of the same key
// block for that result, and different keys never contend.
type reportCache struct {
	mu      sync.Mutex
	entries map[string]*reportEntry
}

type reportEntry struct {
	once sync.Once
	rep  sim.Report
	err  error
}

func (c *reportCache) get(id string, run func() (sim.Report, error)) (sim.Report, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*reportEntry)
	}
	e := c.entries[id]
	if e == nil {
		e = &reportEntry{}
		c.entries[id] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.rep, e.err = run() })
	return e.rep, e.err
}

// size returns the number of cached (or in-flight) entries.
func (c *reportCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

type settingEntry struct {
	once    sync.Once
	setting core.Setting
	err     error
}

// clusterKey identifies the cluster configurations used by the paper.
type clusterKey string

const (
	fiveNodeWestmere  clusterKey = "5xWestmere32GB"
	threeNodeWestmere clusterKey = "3xWestmere64GB"
	threeNodeHaswell  clusterKey = "3xHaswell64GB"
)

func clusterConfig(key clusterKey) sim.ClusterConfig {
	switch key {
	case threeNodeWestmere:
		return sim.ThreeNodeWestmere64GB()
	case threeNodeHaswell:
		return sim.ThreeNodeHaswell64GB()
	default:
		return sim.FiveNodeWestmere()
	}
}

func proxyProfile(key clusterKey) arch.Profile {
	if key == threeNodeHaswell {
		return arch.Haswell()
	}
	return arch.Westmere()
}

// proxyPool returns (building it on first use) the cluster pool for proxy
// measurements on the given cluster key's processor generation.
func (s *Suite) proxyPool(key clusterKey) (*sim.ClusterPool, error) {
	profile := proxyProfile(key)
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	if s.proxyPools == nil {
		s.proxyPools = make(map[string]*sim.ClusterPool)
	}
	if p, ok := s.proxyPools[profile.Name]; ok {
		return p, nil
	}
	proto, err := sim.NewCluster(sim.SingleNode(profile, 0))
	if err != nil {
		return nil, err
	}
	p := sim.NewClusterPool(proto)
	s.proxyPools[profile.Name] = p
	return p, nil
}

// proxyMemo returns (building it on first use) the measurement memo for
// proxy evaluations on the given processor generation.  Memo keys embed the
// benchmark, the cluster fingerprint and the canonical setting, so one memo
// per generation is safe across all workloads and cluster keys that resolve
// to it.
func (s *Suite) proxyMemo(key clusterKey) *tuner.Memo {
	profile := proxyProfile(key)
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	if s.proxyMemos == nil {
		s.proxyMemos = make(map[string]*tuner.Memo)
	}
	m := s.proxyMemos[profile.Name]
	if m == nil {
		m = tuner.NewMemo()
		s.proxyMemos[profile.Name] = m
	}
	return m
}

// proxyEvaluator binds benchmark b to the suite's per-generation cluster
// pool and measurement memo for the given cluster key.  It is the suite's
// single proxy evaluation entry point: every consumer measures through the
// returned evaluator, so no call site invents its own pool or memo-key
// discipline.
func (s *Suite) proxyEvaluator(key clusterKey, b *core.Benchmark) (*tuner.MemoEvaluator, error) {
	pool, err := s.proxyPool(key)
	if err != nil {
		return nil, err
	}
	return tuner.NewEvaluator(pool, b, s.proxyMemo(key)), nil
}

func (s *Suite) workloadSet(key clusterKey) []workloads.Spec {
	if s.Short {
		if key == fiveNodeWestmere {
			return workloads.ShortPaperWorkloads()
		}
		return workloads.ShortNewClusterWorkloads()
	}
	if key == fiveNodeWestmere {
		return workloads.PaperWorkloads()
	}
	return workloads.NewClusterWorkloads()
}

// cacheID builds the cache key of one (workload, cluster) measurement.
// The Short flag is part of the key, so a suite whose Short field is
// toggled between calls never mixes full-scale and reduced-sampling
// reports.
func (s *Suite) cacheID(short string, key clusterKey) string {
	id := short + "/" + string(key)
	if s.Short {
		return "short/" + id
	}
	return id
}

// realReport runs (or returns the cached run of) one real workload on the
// given cluster configuration.
func (s *Suite) realReport(short string, key clusterKey) (sim.Report, error) {
	return s.realReports.get(s.cacheID(short, key), func() (sim.Report, error) {
		var spec workloads.Spec
		found := false
		for _, w := range s.workloadSet(key) {
			if w.ShortName == short {
				spec, found = w, true
				break
			}
		}
		if !found {
			return sim.Report{}, fmt.Errorf("experiments: unknown workload %q", short)
		}
		cluster, err := sim.NewCluster(clusterConfig(key))
		if err != nil {
			return sim.Report{}, err
		}
		if err := spec.Run(cluster); err != nil {
			return sim.Report{}, fmt.Errorf("experiments: running %s: %w", spec.Name, err)
		}
		return cluster.Report(spec.Name), nil
	})
}

// proxyMetrics measures (or recalls from the per-generation memo) one proxy
// benchmark under its qualified setting on a single node of the given
// cluster key's processor generation, optionally tuning it against the real
// workload's metrics first.  The memo plays the role a report cache played:
// duplicate requests — including the same profile reached through different
// cluster keys — singleflight onto one simulation.
func (s *Suite) proxyMetrics(short string, key clusterKey) (perf.Metrics, error) {
	b, err := proxy.ForWorkload(short)
	if err != nil {
		return perf.Metrics{}, err
	}
	setting, err := s.settingFor(short, b)
	if err != nil {
		return perf.Metrics{}, err
	}
	ev, err := s.proxyEvaluator(key, b)
	if err != nil {
		return perf.Metrics{}, err
	}
	ms, _, err := ev.Evaluate([]core.Setting{setting})
	return ms[0], err
}

// reportPair fetches the real report and the proxy metrics of one workload,
// concurrently when worker capacity is available.
func (s *Suite) reportPair(short string, key clusterKey) (realRep sim.Report, proxM perf.Metrics, err error) {
	var realErr, proxErr error
	parallel.Do(
		func() { realRep, realErr = s.realReport(short, key) },
		func() { proxM, proxErr = s.proxyMetrics(short, key) },
	)
	if realErr != nil {
		return realRep, proxM, realErr
	}
	return realRep, proxM, proxErr
}

// forEachWorkload runs fn for every workload of WorkloadOrder, concurrently
// on the shared worker pool, and returns the first error in workload order.
func forEachWorkload(fn func(i int, short string) error) error {
	errs := make([]error, len(WorkloadOrder))
	parallel.For(len(WorkloadOrder), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i, WorkloadOrder[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// settingFor returns the tuned (or default) parameter setting for a proxy.
// A proxy is tuned once, against the five-node Westmere profile of its real
// workload, and the same qualified proxy benchmark is then reused everywhere
// — that reuse across data sets, cluster configurations and architectures is
// exactly what the paper's case studies evaluate.
func (s *Suite) settingFor(short string, b *core.Benchmark) (core.Setting, error) {
	if !s.Tune {
		return core.DefaultSetting(), nil
	}
	s.settingsMu.Lock()
	if s.settings == nil {
		s.settings = make(map[string]*settingEntry)
	}
	e := s.settings[short]
	if e == nil {
		e = &settingEntry{}
		s.settings[short] = e
	}
	s.settingsMu.Unlock()
	e.once.Do(func() { e.setting, e.err = s.tuneSetting(short, b) })
	return e.setting, e.err
}

func (s *Suite) tuneSetting(short string, b *core.Benchmark) (core.Setting, error) {
	target, err := s.realReport(short, fiveNodeWestmere)
	if err != nil {
		return nil, err
	}
	// The tune draws its simulations from the suite's Westmere proxy pool
	// and keys them in the suite's Westmere memo, so every setting the tune
	// evaluates — including the qualified one the tables will ask for — is
	// already cached when the figures run.
	pool, err := s.proxyPool(fiveNodeWestmere)
	if err != nil {
		return nil, err
	}
	res, err := tuner.TuneWithPool(pool, b, target.Metrics, tuner.Options{}, s.proxyMemo(fiveNodeWestmere))
	if err != nil {
		return nil, err
	}
	return res.Setting, nil
}

// displayName maps short names to the paper's workload names.
func displayName(short string) string {
	switch short {
	case "terasort":
		return "TeraSort"
	case "kmeans":
		return "K-means"
	case "pagerank":
		return "PageRank"
	case "alexnet":
		return "AlexNet"
	case "inception":
		return "Inception-V3"
	default:
		return short
	}
}

// formatTable renders rows as a fixed-width text table.
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
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

func sortedMetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

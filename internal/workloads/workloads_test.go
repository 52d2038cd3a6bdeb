package workloads

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// runOn executes one workload spec on a fresh cluster and returns the report.
func runOn(t *testing.T, spec Spec, cfg sim.ClusterConfig) sim.Report {
	t.Helper()
	return runOnCluster(t, spec, sim.MustNewCluster(cfg))
}

// runOnCluster executes one workload spec on the given cluster and returns
// the report.
func runOnCluster(t *testing.T, spec Spec, cluster *sim.Cluster) sim.Report {
	t.Helper()
	if err := spec.Run(cluster); err != nil {
		t.Fatalf("%s failed: %v", spec.Name, err)
	}
	rep := cluster.Report(spec.Name)
	if err := rep.Aggregate.Validate(); err != nil {
		t.Fatalf("%s produced inconsistent counters: %v", spec.Name, err)
	}
	if rep.Runtime <= 0 {
		t.Fatalf("%s reported non-positive runtime", spec.Name)
	}
	return rep
}

// smallPaperWorkloads returns down-scaled versions of the five workloads so
// unit tests stay fast; the full configurations are exercised by the
// experiment harness and benchmarks.  In -short mode the AI workloads
// additionally reduce their host-side sampling (one image per sampled
// AlexNet step, 1/8-resolution Inception).
func smallPaperWorkloads() []Spec {
	alex := AlexNetConfig{Steps: 400, BatchSize: 32}
	incep := InceptionConfig{Steps: 100, BatchSize: 8}
	if testing.Short() {
		alex.SampleBatch = 1
		incep.SpatialScale = 8
	}
	return []Spec{
		TeraSort(4 * GiB),
		KMeans(KMeansConfig{InputBytes: 4 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}),
		PageRank(PageRankConfig{Vertices: 1 << 20, AvgDegree: 8}),
		AlexNet(alex),
		InceptionV3(incep),
	}
}

func TestPaperWorkloadsSpecs(t *testing.T) {
	specs := PaperWorkloads()
	if len(specs) != 5 {
		t.Fatalf("the paper evaluates 5 workloads, got %d", len(specs))
	}
	wantNames := map[string]Pattern{
		"terasort":  IOIntensive,
		"kmeans":    CPUAndMemIntensive,
		"pagerank":  CPUAndIOIntensive,
		"alexnet":   CPUAndMemIntensive,
		"inception": CPUIntensive,
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if want, ok := wantNames[s.ShortName]; !ok || s.Pattern != want {
			t.Errorf("%s has pattern %q, want %q", s.ShortName, s.Pattern, want)
		}
		if s.DataSet == "" {
			t.Errorf("%s has no data set description", s.ShortName)
		}
	}
	if len(NewClusterWorkloads()) != 5 {
		t.Fatal("new-cluster configuration should also have 5 workloads")
	}
	if _, err := ByShortName("terasort"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByShortName("nope"); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
	for archName, nodes := range map[string]int{"westmere": 5, "haswell": 3} {
		d, err := RealDeployment(archName)
		if err != nil || d.Cluster.Nodes != nodes {
			t.Fatalf("%s deployment %+v err %v, want the %d-node cluster", archName, d.Cluster, err, nodes)
		}
		if _, err := d.Workload("inception"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RealDeployment("skylake"); err == nil {
		t.Fatal("unknown architecture should have no real deployment")
	}
	var empty Spec
	if err := empty.Validate(); err == nil {
		t.Fatal("empty spec should fail validation")
	}
}

// workloadSHA256 pins, per down-scaled workload of smallPaperWorkloads on
// the five-node Westmere cluster, the SHA-256 of its canonical metric bytes
// and of cluster.ExportState() after the run.  The real workloads reach
// sim.Cluster.RunStage through mapreduce and dataflow; the state hash also
// covers every node's counters and the float order of its virtual-time
// accounts, which the metric bytes do not see.  AlexNet and Inception-V3
// sample less in -short mode, so that mode has its own table.  A change
// that means to alter the model updates these hashes and says so.
type workloadSHA256 struct{ metrics, state string }

var (
	workloadPins = map[string]workloadSHA256{
		"terasort":  {"31e10cf2124051a60e1d50f60b77ef206eaf0960a8a4ce632c711b171a0b9705", "9e730c84b874043e0a92feed1a05071d2e2dd07affaa4b8569741ddacdf91d41"},
		"kmeans":    {"9374996bb5550f632fa0008dd3b8646448ece0a54d953393ded0c70af5ab3e4b", "82187e260130475e4a83055553a06b2a31fa9daf8a36de23274a131b5a75429a"},
		"pagerank":  {"25cce1875b5531b44e23bfb682f9f09b89ac4232b7c98e047dc0dc24bbeb3510", "b621adef47d00bb401fce4dacb3c328fdeda70eb04992af6744b6ed4e87c777e"},
		"alexnet":   {"34ad0f8b4293d5bca7a63518ba27fafe01b4dc3d913ebe9c37ff500ceca29b19", "a4e44a304d90583c31439b8e951d2835076cf1dff377c9ed29269b8950a4ea16"},
		"inception": {"77d3c634b46790211c7c56ff398b9492ebd67218934f76b9ff2c4918d5e95b47", "28883a14695730e871016f0887822fd44649c37fef38a07c19c69aab57fb0dbe"},
	}
	workloadShortPins = map[string]workloadSHA256{
		"terasort":  workloadPins["terasort"],
		"kmeans":    workloadPins["kmeans"],
		"pagerank":  workloadPins["pagerank"],
		"alexnet":   {"e17280f3a9c465b65d50e7b8950e3b54f589908ce79b76194ba9292225270dfd", "3bd4c039ba961d6180a2f9fabc183ec2c72ae6b7376674e178f77920f024597a"},
		"inception": {"987e5326fa505ea4cc632297413b0af49d90fb67d712b926a42000eebc2f5498", "d7bd071957d6671fe0fd4ebf4c437217a524a2f392a3047bce6c40388bbd94c5"},
	}
)

func TestAllWorkloadsRunOnFiveNodeCluster(t *testing.T) {
	pins := workloadPins
	if testing.Short() {
		pins = workloadShortPins
	}
	for _, spec := range smallPaperWorkloads() {
		spec := spec
		t.Run(spec.ShortName, func(t *testing.T) {
			cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
			rep := runOnCluster(t, spec, cluster)
			if rep.Aggregate.Instructions() == 0 {
				t.Fatal("workload executed no instructions")
			}
			if rep.Metrics.IPC <= 0 || rep.Metrics.MIPS <= 0 {
				t.Fatalf("degenerate metrics: %+v", rep.Metrics)
			}
			js, err := rep.Metrics.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want := pins[spec.ShortName]
			if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want.metrics {
				t.Errorf("simulated metrics moved: sha256 %s, pinned %s\n%s", got, want.metrics, js)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(cluster.ExportState())); got != want.state {
				t.Errorf("simulated cluster state moved: sha256 %s, pinned %s", got, want.state)
			}
		})
	}
}

func TestWorkloadPatternsShowInMetrics(t *testing.T) {
	alexCfg := AlexNetConfig{Steps: 400, BatchSize: 32}
	if testing.Short() {
		alexCfg.SampleBatch = 1
	}
	tera := runOn(t, TeraSort(4*GiB), sim.FiveNodeWestmere())
	kmeans := runOn(t, KMeans(KMeansConfig{InputBytes: 4 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}), sim.FiveNodeWestmere())
	alex := runOn(t, AlexNet(alexCfg), sim.FiveNodeWestmere())

	// TeraSort is I/O intensive: its disk bandwidth dwarfs the AI workload's.
	if tera.Metrics.DiskBW <= 10*alex.Metrics.DiskBW {
		t.Fatalf("TeraSort disk bandwidth %.2g should dwarf AlexNet's %.2g",
			tera.Metrics.DiskBW, alex.Metrics.DiskBW)
	}
	// The AI workload is floating-point heavy, the Hadoop workloads are not
	// (paper Figure 5: <1% FP for TeraSort, ~40% for AlexNet).
	if alex.Metrics.FloatRatio < 0.15 {
		t.Fatalf("AlexNet float ratio %.3f too low", alex.Metrics.FloatRatio)
	}
	if tera.Metrics.FloatRatio > 0.05 {
		t.Fatalf("TeraSort float ratio %.3f too high", tera.Metrics.FloatRatio)
	}
	// K-means does far more floating point work than TeraSort.
	if kmeans.Metrics.FloatRatio <= tera.Metrics.FloatRatio {
		t.Fatal("K-means should have a higher FP share than TeraSort")
	}
}

func TestKMeansSparsityAffectsBehaviour(t *testing.T) {
	sparse := runOn(t, KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9}), sim.FiveNodeWestmere())
	dense := runOn(t, KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0}), sim.FiveNodeWestmere())
	// Dense vectors do more floating point work per byte (paper Section IV-A
	// observes roughly 2x the memory bandwidth for dense data).
	if dense.Aggregate.FloatInstrs <= sparse.Aggregate.FloatInstrs {
		t.Fatalf("dense input should execute more FP instructions (%d vs %d)",
			dense.Aggregate.FloatInstrs, sparse.Aggregate.FloatInstrs)
	}
	if dense.Metrics.MemBW <= sparse.Metrics.MemBW {
		t.Fatalf("dense input should need more memory bandwidth (%.3g vs %.3g)",
			dense.Metrics.MemBW, sparse.Metrics.MemBW)
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	cluster := sim.MustNewCluster(sim.FiveNodeWestmere())
	if err := KMeans(KMeansConfig{InputBytes: GiB}).Run(cluster); err == nil {
		t.Fatal("zero-dimension K-means should fail")
	}
	if err := PageRank(PageRankConfig{Vertices: 0}).Run(cluster); err == nil {
		t.Fatal("zero-vertex PageRank should fail")
	}
	if err := AlexNet(AlexNetConfig{}).Run(cluster); err == nil {
		t.Fatal("zero-step AlexNet should fail")
	}
	if err := InceptionV3(InceptionConfig{}).Run(cluster); err == nil {
		t.Fatal("zero-step Inception should fail")
	}
}

func TestNetworksAreStructurallyFaithful(t *testing.T) {
	alex := AlexNetNetwork()
	if len(alex.Layers) < 15 {
		t.Fatalf("AlexNet should have its 5 conv + 3 FC structure, got %d layers", len(alex.Layers))
	}
	if alex.ParamCount() == 0 {
		t.Fatal("AlexNet must have parameters")
	}
	inception := InceptionV3Network()
	// Count inception modules by name prefix.
	modules := 0
	for _, l := range inception.Layers {
		if len(l.Name()) >= 5 && l.Name()[:5] == "mixed" {
			modules++
		}
	}
	if modules < 3 {
		t.Fatalf("Inception-V3 model should contain at least 3 inception modules, got %d", modules)
	}
	// The in-process Inception is width-scaled by 4 (vs 2 for AlexNet), so
	// only a loose absolute sanity bound applies.
	if inception.ParamCount() < 10_000 {
		t.Fatalf("Inception parameter count %d implausibly small", inception.ParamCount())
	}
}

func TestFiveNodeFasterThanThreeNodeForTeraSort(t *testing.T) {
	five := runOn(t, TeraSort(8*GiB), sim.FiveNodeWestmere())
	three := runOn(t, TeraSort(8*GiB), sim.ThreeNodeWestmere64GB())
	if five.Runtime >= three.Runtime {
		t.Fatalf("TeraSort on 4 workers (%.1fs) should beat 2 workers (%.1fs)", five.Runtime, three.Runtime)
	}
}

func TestHaswellSpeedsUpWorkloads(t *testing.T) {
	spec := KMeans(KMeansConfig{InputBytes: 2 * GiB, Dim: 64, Clusters: 8, Sparsity: 0.9})
	west := runOn(t, spec, sim.ThreeNodeWestmere64GB())
	has := runOn(t, spec, sim.ThreeNodeHaswell64GB())
	speedup := sim.Speedup(west.Runtime, has.Runtime)
	if speedup <= 1.0 {
		t.Fatalf("Haswell should speed up K-means, got %.2fx", speedup)
	}
	if speedup > 3.0 {
		t.Fatalf("cross-generation speedup %.2fx implausibly high", speedup)
	}
}

func TestWorkloadMetricsAreWellFormed(t *testing.T) {
	rep := runOn(t, PageRank(PageRankConfig{Vertices: 1 << 20, AvgDegree: 8}), sim.FiveNodeWestmere())
	for i, v := range rep.Metrics.Vector() {
		if v < 0 {
			t.Fatalf("metric %s is negative: %g", perf.MetricNames[i], v)
		}
	}
	for _, hit := range []float64{rep.Metrics.L1DHit, rep.Metrics.L1IHit, rep.Metrics.L2Hit, rep.Metrics.L3Hit} {
		if hit < 0 || hit > 1 {
			t.Fatalf("cache hit ratio %g outside [0,1]", hit)
		}
	}
	mix := rep.Metrics.LoadRatio + rep.Metrics.StoreRatio + rep.Metrics.IntRatio +
		rep.Metrics.FloatRatio + rep.Metrics.BranchRatio
	if mix < 0.999 || mix > 1.001 {
		t.Fatalf("instruction mix ratios sum to %g, want 1", mix)
	}
}

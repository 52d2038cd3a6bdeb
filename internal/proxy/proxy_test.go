package proxy

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/sim"
)

func TestAllProxiesValidateAndCoverTableIII(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("the paper defines 5 proxy benchmarks, got %d", len(all))
	}
	wantWorkloads := map[string]bool{"terasort": true, "kmeans": true, "pagerank": true, "alexnet": true, "inception": true}
	for _, b := range all {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if !wantWorkloads[b.Workload] {
			t.Errorf("%s proxies unexpected workload %q", b.Name, b.Workload)
		}
		delete(wantWorkloads, b.Workload)
		// Weights should approximately sum to 1 (they are execution ratios).
		if w := b.TotalWeight(); w < 0.95 || w > 1.05 {
			t.Errorf("%s weights sum to %g, want ~1", b.Name, w)
		}
	}
	if len(wantWorkloads) != 0 {
		t.Fatalf("missing proxies for %v", wantWorkloads)
	}
}

func TestForWorkload(t *testing.T) {
	b, err := ForWorkload("terasort")
	if err != nil || b.Name != "Proxy TeraSort" {
		t.Fatalf("ForWorkload(terasort) = %v, %v", b, err)
	}
	if _, err := ForWorkload("unknown"); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
}

func TestTableIIICompositions(t *testing.T) {
	// Spot-check the motif vocabulary of each proxy against Table III.
	motifsOf := func(b *core.Benchmark) map[string]bool {
		m := map[string]bool{}
		for _, name := range b.Motifs() {
			m[name] = true
		}
		return m
	}
	tera := motifsOf(TeraSort())
	for _, want := range []string{"quicksort", "mergesort", "random_sampling", "interval_sampling", "graph_construction", "graph_traversal"} {
		if !tera[want] {
			t.Errorf("Proxy TeraSort should include %s", want)
		}
	}
	km := motifsOf(KMeans())
	for _, want := range []string{"euclidean_distance", "cosine_distance", "quicksort", "count_statistics"} {
		if !km[want] {
			t.Errorf("Proxy K-means should include %s", want)
		}
	}
	pr := motifsOf(PageRank())
	for _, want := range []string{"matrix_construction", "matrix_multiplication", "quicksort", "minmax_statistics", "degree_statistics"} {
		if !pr[want] {
			t.Errorf("Proxy PageRank should include %s", want)
		}
	}
	alex := motifsOf(AlexNet())
	for _, want := range []string{"convolution", "max_pooling", "fully_connected", "batch_norm"} {
		if !alex[want] {
			t.Errorf("Proxy AlexNet should include %s", want)
		}
	}
	inc := motifsOf(InceptionV3())
	for _, want := range []string{"convolution", "max_pooling", "avg_pooling", "relu", "dropout", "fully_connected", "softmax", "batch_norm"} {
		if !inc[want] {
			t.Errorf("Proxy Inception-V3 should include %s", want)
		}
	}
	// TeraSort's dominant motif class is Sort (70% in the paper's example).
	var sortWeight float64
	for _, e := range TeraSort().Edges {
		if e.Impl == "quicksort" || e.Impl == "mergesort" {
			sortWeight += e.Weight
		}
	}
	if sortWeight < 0.6 {
		t.Fatalf("sort weight %g should dominate Proxy TeraSort", sortWeight)
	}
}

// simulatedMetricsSHA256 pins the SHA-256 of each proxy's canonical metric
// bytes (perf.Metrics.MarshalJSON) at its default setting on one Westmere
// node.  Any change to what the models simulate moves these hashes.  A
// change that means to alter the model (a new instruction-fetch model, a
// fixed L3 set index) updates them and says so; a refactor or speed-up of
// the models must leave them alone.
var simulatedMetricsSHA256 = map[string]string{
	"terasort":  "f01c3d1610c6668692dbe93b7b7fbb5a7864435378953d17575fefa6e1090af6",
	"kmeans":    "dd7db2778e01c150c6bf065a4cb032965f226b8d5fb3f2c88376fa91d2ef191a",
	"pagerank":  "d2d18717d59719d6d04ac04e9a4a575a5d0e163d8a66a2a9bba10f4da6d2143f",
	"alexnet":   "26098822081772e09fc927bc8f512f69c4f853fec4d18de240d77fcdc630df03",
	"inception": "29ecf56d528857646fdb4b9317907028fac12f52d2c5fece3b1b654d711cf5aa",
}

func TestProxiesRunOnSingleNode(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Workload, func(t *testing.T) {
			cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
			rep, err := core.Run(cluster, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Runtime <= 0 {
				t.Fatal("proxy should consume virtual time")
			}
			// The paper's proxies run in seconds to tens of seconds on one
			// node (vs thousands of seconds for the real workloads).
			if rep.Runtime > 300 {
				t.Fatalf("proxy runtime %.1fs is implausibly long", rep.Runtime)
			}
			if err := rep.Aggregate.Validate(); err != nil {
				t.Fatal(err)
			}
			if rep.Aggregate.Instructions() == 0 {
				t.Fatal("proxy executed no instructions")
			}
			js, err := rep.Metrics.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%x", sha256.Sum256(js)), simulatedMetricsSHA256[b.Workload]; got != want {
				t.Fatalf("simulated metrics moved: sha256 %s, pinned %s\n%s", got, want, js)
			}
		})
	}
}

func TestKMeansSparsityVariantSharesStructure(t *testing.T) {
	sparse := KMeansWithSparsity(0.9)
	dense := KMeansWithSparsity(0)
	if len(sparse.Edges) != len(dense.Edges) {
		t.Fatal("sparsity variants must share the same DAG")
	}
	for i := range sparse.Edges {
		if sparse.Edges[i].Impl != dense.Edges[i].Impl || sparse.Edges[i].Weight != dense.Edges[i].Weight {
			t.Fatal("sparsity variants must share motifs and weights")
		}
	}
	// Only the generated input differs.
	runFloat := func(b *core.Benchmark) uint64 {
		cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
		rep, err := core.Run(cluster, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.FloatInstrs
	}
	if runFloat(dense) <= runFloat(sparse) {
		t.Fatal("dense input should do more floating point work than sparse input")
	}
}

func TestAIProxiesAreFloatHeavyAndBigDataProxiesAreNot(t *testing.T) {
	run := func(b *core.Benchmark) float64 {
		cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
		rep, err := core.Run(cluster, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Metrics.FloatRatio
	}
	tera := run(TeraSort())
	alex := run(AlexNet())
	if tera > 0.05 {
		t.Fatalf("Proxy TeraSort float ratio %.3f should be tiny", tera)
	}
	if alex < 0.2 {
		t.Fatalf("Proxy AlexNet float ratio %.3f should be large", alex)
	}
}

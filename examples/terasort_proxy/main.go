// terasort_proxy: the full methodology for one workload.
//
// This example walks through the complete pipeline of the paper for Hadoop
// TeraSort: run the real workload (100 GB of gensort text on the five-node
// Westmere cluster), run its generated proxy benchmark on one node, compute
// the per-metric accuracy (Equation 3) and the runtime speedup (Table VI),
// and finally auto-tune the proxy with the decision-tree tuner.
package main

import (
	"fmt"
	"log"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// 1. Measure the real workload: Hadoop TeraSort sorting 100 GB of
	//    gensort records on the paper's five-node cluster.
	fmt.Println("running Hadoop TeraSort (100 GB) on the five-node Westmere cluster...")
	realCluster, err := sim.NewCluster(sim.FiveNodeWestmere())
	if err != nil {
		log.Fatal(err)
	}
	spec := workloads.TeraSort(100 * workloads.GiB)
	if err := spec.Run(realCluster); err != nil {
		log.Fatal(err)
	}
	real := realCluster.Report(spec.Name)
	fmt.Printf("  real runtime: %.0f virtual seconds\n\n", real.Runtime)

	// 2. Run the generated Proxy TeraSort on a single node.
	fmt.Println("running Proxy TeraSort on one node...")
	proxyCluster, err := sim.NewCluster(sim.SingleNode(arch.Westmere(), 0))
	if err != nil {
		log.Fatal(err)
	}
	bench := proxy.TeraSort()
	prox, err := core.Run(proxyCluster, bench, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  proxy runtime: %.2f virtual seconds (speedup %.0fX)\n\n",
		prox.Runtime, sim.Speedup(real.Runtime, prox.Runtime))

	// 3. Accuracy of the untuned proxy (Equation 3 per metric).
	report := perf.CompareMetrics(real.Metrics, prox.Metrics, nil)
	fmt.Printf("untuned accuracy: %.1f%% average\n%s\n", report.Average()*100, report.String())

	// 4. Auto-tune the proxy against the real workload's metric vector.
	fmt.Println("auto-tuning Proxy TeraSort (decision-tree tuner)...")
	res, err := tuner.TuneWithPool(sim.NewClusterPool(proxyCluster), bench, real.Metrics, tuner.Options{MaxIterations: 6}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  converged: %v after %d iterations (%d proxy evaluations)\n",
		res.Converged, res.Iterations, res.Evaluations)
	fmt.Printf("  qualified setting: %s\n", res.Setting)
	fmt.Printf("  tuned accuracy: %.1f%% average\n", res.Report.Average()*100)
}

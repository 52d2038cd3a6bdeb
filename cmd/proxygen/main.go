// Command proxygen generates a qualified proxy benchmark for one (or all) of
// the five real workloads: it measures the real workload on the simulated
// cluster of each selected processor generation, auto-tunes the proxy
// benchmark's parameters with the decision-tree tuner until the metric
// deviations are within the threshold, and prints the resulting parameter
// setting and accuracy report.  With -arch all the proxy is qualified on
// both the Westmere and the Haswell generation concurrently (the paper's
// cross-system validation) and a per-profile accuracy matrix is printed.
//
// Usage:
//
//	proxygen -workload kmeans [-arch westmere|haswell|all] [-all]
//	         [-threshold 0.15] [-iterations 12] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"dataproxy/internal/parallel"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
)

// qualTargets returns the real deployment of each selected architecture:
// the proxy is tuned for the deployment's processor profile against the
// real workload measured on its cluster (workloads.RealDeployment).
func qualTargets(sel string) ([]workloads.Deployment, error) {
	names := []string{sel}
	if sel == "all" {
		names = []string{"westmere", "haswell"}
	}
	var targets []workloads.Deployment
	for _, name := range names {
		d, err := workloads.RealDeployment(name)
		if err != nil {
			return nil, fmt.Errorf("unknown -arch %q (want westmere, haswell or all)", sel)
		}
		targets = append(targets, d)
	}
	return targets, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("proxygen: ")
	workload := flag.String("workload", "terasort", "workload to proxy: terasort, kmeans, pagerank, alexnet, inception")
	allWorkloads := flag.Bool("all", false, "generate proxies for all five workloads")
	archSel := flag.String("arch", "westmere", "architecture(s) to qualify the proxy on: westmere, haswell or all")
	threshold := flag.Float64("threshold", 0.15, "accepted per-metric deviation")
	iterations := flag.Int("iterations", 12, "maximum adjust/feedback iterations")
	par := flag.Int("parallel", 0, "host worker count of the shared execution engine (0 = all CPUs, 1 = sequential)")
	flag.Parse()
	parallel.SetWorkers(*par)

	targets, err := qualTargets(strings.ToLower(*archSel))
	if err != nil {
		log.Fatal(err)
	}
	shorts := []string{*workload}
	if *allWorkloads {
		shorts = shorts[:0]
		for _, spec := range workloads.PaperWorkloads() {
			shorts = append(shorts, spec.ShortName)
		}
	}

	opts := tuner.Options{Threshold: *threshold, MaxIterations: *iterations}
	for i, short := range shorts {
		if i > 0 {
			fmt.Println()
		}
		if err := generate(short, targets, opts); err != nil {
			log.Fatal(err)
		}
	}
}

// generate measures the real workload on every target architecture, tunes
// the proxy per architecture (concurrently, sharing one measurement memo)
// and prints the qualification results.
func generate(short string, targets []workloads.Deployment, opts tuner.Options) error {
	specs := make([]workloads.Spec, len(targets))
	for i, d := range targets {
		var err error
		if specs[i], err = d.Workload(short); err != nil {
			return err
		}
	}
	b, err := proxy.ForWorkload(short)
	if err != nil {
		return err
	}

	// Measure the real workload once per architecture; the measurements are
	// independent and fan out over the worker pool.
	realReports := make([]sim.Report, len(targets))
	errs := make([]error, len(targets))
	parallel.For(len(targets), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			realReports[i], errs[i] = measureReal(specs[i], targets[i].Cluster)
		}
	})
	tuneTargets := make([]tuner.Target, len(targets))
	for i, d := range targets {
		if errs[i] != nil {
			return errs[i]
		}
		fmt.Printf("measured %s on %s: %.0f virtual seconds\n", specs[i].Name, d.Cluster.Name, realReports[i].Runtime)
		tuneTargets[i] = tuner.Target{Profile: d.Cluster.Profile, Metrics: realReports[i].Metrics}
	}

	fmt.Printf("auto-tuning %s on %d architecture(s) (threshold %.0f%%, max %d iterations)...\n",
		b.Name, len(targets), opts.Threshold*100, opts.MaxIterations)
	results, err := tuner.TuneAll(b, tuneTargets, opts)
	if err != nil {
		return err
	}

	for i, r := range results {
		res := r.Result
		fmt.Printf("\n[%s]\n", r.Profile.Name)
		fmt.Printf("  simulations: %d (%d memoized), iterations: %d, converged: %v\n",
			res.Evaluations, res.MemoHits, res.Iterations, res.Converged)
		fmt.Printf("  qualified setting: %s\n", res.Setting)
		fmt.Printf("  proxy runtime: %.2f virtual seconds (speedup %.0fX over the real workload)\n",
			res.ProxyMetrics.Runtime, sim.Speedup(realReports[i].Runtime, res.ProxyMetrics.Runtime))
		if len(res.History) > 0 {
			fmt.Println("  tuning history:")
			for j, h := range res.History {
				fmt.Printf("    %2d: %-12s -> adjust %-10s to %.3f (avg accuracy %.3f)\n",
					j+1, h.Metric, h.Parameter, h.Factor, h.Average)
			}
		}
	}

	if len(results) > 1 {
		fmt.Printf("\nper-profile accuracy matrix for %s:\n%s", b.Name, tuner.FormatAccuracyMatrix(results, nil))
	} else {
		fmt.Printf("\naccuracy against %s:\n%s", specs[0].Name, results[0].Result.Report.String())
	}
	return nil
}

func measureReal(spec workloads.Spec, cfg sim.ClusterConfig) (sim.Report, error) {
	cluster, err := sim.NewCluster(cfg)
	if err != nil {
		return sim.Report{}, err
	}
	if err := spec.Run(cluster); err != nil {
		return sim.Report{}, err
	}
	return cluster.Report(spec.Name), nil
}

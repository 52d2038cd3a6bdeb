// Command proxyrun executes one of the generated proxy benchmarks on a
// single simulated node and prints its virtual runtime and metric vector.
//
// Usage:
//
//	proxyrun -workload terasort [-arch westmere|haswell] [-datasize 2.0] [-numtasks 1.5]
//	proxyrun -workload terasort -settings "dataSize=0.5;dataSize=1,numTasks=2;dataSize=2"
//
// The -datasize/-chunksize/-numtasks/-weight flags are multiplicative
// factors over the proxy's base parameters (Table I).  -settings sweeps
// several settings in one batched evaluation: entries are separated by ';',
// each entry is a comma-separated list of name=factor pairs (an empty entry
// selects the default setting), and all entries execute as one trace-sharing
// core.RunBatch sweep instead of independent runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proxyrun: ")
	workload := flag.String("workload", "terasort", "workload to proxy: terasort, kmeans, pagerank, alexnet, inception")
	archName := flag.String("arch", "westmere", "processor profile: westmere or haswell")
	dataSize := flag.Float64("datasize", 1, "dataSize factor")
	chunkSize := flag.Float64("chunksize", 1, "chunkSize factor")
	numTasks := flag.Float64("numtasks", 1, "numTasks factor")
	weight := flag.Float64("weight", 1, "weight factor")
	settingsSpec := flag.String("settings", "", "batched sweep: ';'-separated settings, each 'name=factor,name=factor' (overrides the single-setting flags)")
	flag.Parse()

	b, err := proxy.ForWorkload(*workload)
	if err != nil {
		log.Fatal(err)
	}
	profile, ok := arch.Profiles()[*archName]
	if !ok {
		log.Fatalf("unknown architecture %q (want westmere or haswell)", *archName)
	}
	cluster, err := sim.NewCluster(sim.SingleNode(profile, 0))
	if err != nil {
		log.Fatal(err)
	}

	if *settingsSpec != "" {
		settings, err := core.ParseSettings(*settingsSpec)
		if err != nil {
			log.Fatal(err)
		}
		reports, err := core.RunBatch(sim.NewClusterPool(cluster), b, settings, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s on %s (%d settings, batched)\n", b.Name, profile.Name, len(settings))
		for i, rep := range reports {
			fmt.Printf("[%d] %s\n", i, formatSetting(settings[i]))
			printReport(rep)
		}
		return
	}

	setting := core.Setting{
		"dataSize":  *dataSize,
		"chunkSize": *chunkSize,
		"numTasks":  *numTasks,
		"weight":    *weight,
	}
	rep, err := core.Run(cluster, b, setting)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s\n", b.Name, profile.Name)
	printReport(rep)
}

// formatSetting renders a setting's non-default factors in the stable
// core.ParameterNames order ("defaults" when every factor is 1).
func formatSetting(s core.Setting) string {
	var sb strings.Builder
	for _, name := range core.ParameterNames {
		if f := s.Get(name); f != 1 {
			if sb.Len() > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s=%g", name, f)
		}
	}
	if sb.Len() == 0 {
		return "defaults"
	}
	return sb.String()
}

func printReport(rep sim.Report) {
	fmt.Printf("  virtual runtime: %.2f s\n", rep.Runtime)
	fmt.Printf("  instructions:    %d\n", rep.Aggregate.Instructions())
	fmt.Println("  metric vector:")
	for _, name := range perf.MetricNames {
		fmt.Printf("    %-12s %.6g\n", name, rep.Metrics.Get(name))
	}
}

package experiments

import (
	"fmt"

	"dataproxy/internal/arch"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/workloads"
)

// Table1 renders the tunable parameters of each data motif (Table I) as
// the paper lists them.  core.ParameterNames holds the ones a proxy here
// reads; the AI geometry rows (totalSize to numChannels) move no proxy.
func Table1() string {
	rows := [][]string{
		{"dataSize", "The input data size for each big data motif"},
		{"chunkSize", "The data block size processed by each thread for each big data motif"},
		{"numTasks", "The process and thread numbers for each big data and AI data motif"},
		{"batchSize", "The batch size of each iteration for each AI data motif"},
		{"totalSize", "The total input data size need to be processed for each AI data motif"},
		{"heightSize", "The height dimension for one input data or filter"},
		{"widthSize", "The width dimension for one input data or filter"},
		{"numChannels", "The channel number for one input data or filter"},
		{"weight", "The contribution for each data motif"},
	}
	return "Table I: Tunable Parameters for Each Data Motif\n" + formatTable([]string{"Parameter", "Description"}, rows)
}

// Table2 renders the qualitative comparison of simulation methodologies
// (Table II).
func Table2() string {
	rows := [][]string{
		{"Kernel Benchmark", "NPB", "Fixed", "Recompile", "Yes", "Yes", "Low"},
		{"Synthetic Trace Method", "SimPoint", "Fixed", "Regenerate", "No", "No", "High"},
		{"Synthetic Benchmark", "PerfProx", "Fixed", "Regenerate", "No", "No", "High"},
		{"Data Motif-Based Proxy Benchmark", "Data Motif Benchmark", "On-demand", "Recompile", "Yes", "Yes", "High"},
	}
	return "Table II: Comparison of Different Simulation Methodologies for Big Data and AI Workloads\n" +
		formatTable([]string{"Methodology", "Typical Benchmark/Tool", "Data Set", "Portable Cost", "Multi-core Scalability", "Cross Architecture", "Accuracy"}, rows)
}

// Table3 renders the five real benchmarks and their proxy compositions
// (Table III), generated from the actual proxy benchmark definitions.
func Table3() string {
	var rows [][]string
	for _, short := range WorkloadOrder {
		spec, err := workloads.ByShortName(short)
		if err != nil {
			continue
		}
		b, err := proxy.ForWorkload(short)
		if err != nil {
			continue
		}
		motifs := ""
		for i, m := range b.Motifs() {
			if i > 0 {
				motifs += ", "
			}
			motifs += m
		}
		rows = append(rows, []string{spec.Name, string(spec.Pattern), spec.DataSet, motifs})
	}
	return "Table III: Five Real Benchmarks and Their Corresponding Proxy Benchmarks\n" +
		formatTable([]string{"Benchmark", "Workload Pattern", "Data Set", "Data Motif Implementations of Proxy Benchmark"}, rows)
}

// Table4 renders the node configuration (Table IV) from the Westmere
// profile.
func Table4() string {
	p := arch.Westmere()
	rows := [][]string{
		{"CPU Type", p.Name},
		{"Cores", fmt.Sprintf("%d cores @ %.2f GHz (x%d sockets)", p.CoresPerSocket, p.FrequencyHz/1e9, p.Sockets)},
		{"L1 DCache", fmt.Sprintf("%d x %d KB", p.CoresPerSocket, p.L1D.SizeBytes/1024)},
		{"L1 ICache", fmt.Sprintf("%d x %d KB", p.CoresPerSocket, p.L1I.SizeBytes/1024)},
		{"L2 Cache", fmt.Sprintf("%d x %d KB", p.CoresPerSocket, p.L2.SizeBytes/1024)},
		{"L3 Cache", fmt.Sprintf("%d MB", p.L3.SizeBytes/1024/1024)},
		{"Memory", fmt.Sprintf("32 GB DDR3, %.0f GB/s", p.MemBandwidthBytesPS/1e9)},
		{"Hyper-Threading", "Disabled"},
	}
	return "Table IV: Node Configuration Details of Xeon E5645\n" + formatTable([]string{"Component", "Configuration"}, rows)
}

// Table5 renders the metric definitions (Table V).
func Table5() string {
	rows := [][]string{
		{"Processor Performance", "IPC", "Instructions per cycle"},
		{"Processor Performance", "MIPS", "Million instructions per second"},
		{"Instruction Mix", "Instruction ratios", "Ratios of load, store, branch, floating-point and integer instructions"},
		{"Branch Prediction", "Branch Miss", "Branch miss prediction ratio"},
		{"Cache Behavior", "L1I/L1D/L2/L3 Hit Ratio", "Cache hit ratios per level"},
		{"Memory Bandwidth", "Read/Write/Total Bandwidth", "Memory load and store bandwidth"},
		{"Disk I/O Behavior", "Disk I/O Bandwidth", "Disk read and write bandwidth (Equation 2)"},
	}
	return "Table V: System and Micro-architectural Metrics\n" + formatTable([]string{"Category", "Metric Name", "Description"}, rows)
}

// RuntimeRow is one row of Table VI / Table VII: real vs. proxy execution
// time and the resulting speedup.
type RuntimeRow struct {
	Workload     string
	RealSeconds  float64
	ProxySeconds float64
	Speedup      float64
}

func (s *Suite) runtimeRows(key clusterKey) ([]RuntimeRow, error) {
	rows := make([]RuntimeRow, len(WorkloadOrder))
	err := forEachWorkload(func(i int, short string) error {
		realRep, proxM, err := s.reportPair(short, key)
		if err != nil {
			return err
		}
		rows[i] = RuntimeRow{
			Workload:     displayName(short),
			RealSeconds:  realRep.Runtime,
			ProxySeconds: proxM.Runtime,
			Speedup:      sim.Speedup(realRep.Runtime, proxM.Runtime),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table6 reproduces Table VI: execution time of the real and proxy
// benchmarks on the five-node Westmere cluster.
func (s *Suite) Table6() ([]RuntimeRow, error) { return s.runtimeRows(fiveNodeWestmere) }

// Table7 reproduces Table VII: execution time on the new (three-node, 64 GB)
// cluster configuration.
func (s *Suite) Table7() ([]RuntimeRow, error) { return s.runtimeRows(threeNodeWestmere) }

// FormatRuntimeRows renders Table VI / VII rows.
func FormatRuntimeRows(title string, rows []RuntimeRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%.0f", r.RealSeconds),
			fmt.Sprintf("%.2f", r.ProxySeconds),
			fmt.Sprintf("%.0fX", r.Speedup),
		})
	}
	return title + "\n" + formatTable([]string{"Workload", "Real version (s)", "Proxy version (s)", "Speedup"}, cells)
}

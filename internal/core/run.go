package core

import (
	"fmt"

	"dataproxy/internal/motif"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// proxyCodeFootprintBytes is the light-weight (POSIX-threads style) stack's
// instruction working set, orders of magnitude smaller than the JVM/Hadoop
// or TensorFlow stacks of the real workloads.
const proxyCodeFootprintBytes = 96 * 1024

const proxyJumpsPer1k = 70

// Run executes the proxy benchmark on the cluster's first worker node (the
// paper runs each proxy benchmark on a single slave node) under the given
// tuning setting, and returns its report.  A nil setting means
// DefaultSetting.
//
// Run is a one-lane RunBatch on the given cluster: the report comes from
// the batch's lane, while the cluster's own clock and counters stay at
// their reset state.  The batch resets the cluster first, so repeated Run
// calls (as the auto-tuner performs) are independent.
func Run(cluster *sim.Cluster, b *Benchmark, setting Setting) (sim.Report, error) {
	if err := b.Validate(); err != nil {
		return sim.Report{}, err
	}
	if setting == nil {
		setting = DefaultSetting()
	}
	if err := setting.Validate(); err != nil {
		return sim.Report{}, err
	}
	reps, _, err := b.runGroup(cluster, []Setting{setting}, nil, nil)
	if err != nil {
		return sim.Report{}, err
	}
	if err := checkReportInvariants(b, reps[0]); err != nil {
		return sim.Report{}, err
	}
	return reps[0], nil
}

// checkReportInvariants runs the perf model invariants (hit+miss
// conservation, extrapolation clamp bounds) over a fresh report when the
// debug flag is armed (perf.SetInvariantChecks / DATAPROXY_INVARIANTS).
// Campaigns — tuner sweeps, experiment suites, serving traffic — enable it
// to turn silent model drift into a loud per-measurement error; the flag
// check is one atomic load per simulation, nowhere near the hot path.
func checkReportInvariants(b *Benchmark, rep sim.Report) error {
	if !perf.InvariantChecksEnabled() {
		return nil
	}
	if err := perf.CheckReport(rep.Aggregate, rep.Metrics); err != nil {
		return fmt.Errorf("core: %s measurement violates invariants: %w", b.Name, err)
	}
	return nil
}

// effectiveSampleBytes resolves the sample volume actually generated for an
// execution: the benchmark's SampleBytes (default 4 MiB) clamped to the
// effective data size, so tiny configured inputs are never oversampled.
func (b *Benchmark) effectiveSampleBytes(p Params) uint64 {
	sampleBytes := b.SampleBytes
	if sampleBytes == 0 {
		sampleBytes = 4 << 20
	}
	if p.DataSize > 0 && sampleBytes > p.DataSize {
		sampleBytes = p.DataSize
	}
	return sampleBytes
}

func (e Edge) name() string {
	if e.Name != "" {
		return e.Name
	}
	return e.Impl
}

// runChunked runs the motif over the task's share in chunk-size pieces (the
// chunkSize parameter of Table I controls each thread's working-set size).
func runChunked(ex *sim.Exec, impl motif.Impl, share *motif.Dataset, chunkSize uint64) *motif.Dataset {
	if !chunks(share, chunkSize) {
		return impl.Run(ex, share)
	}
	pieces := int((share.SizeBytes() + chunkSize - 1) / chunkSize)
	chunks := splitDataset(share, pieces)
	outs := make([]*motif.Dataset, 0, len(chunks))
	for _, ch := range chunks {
		outs = append(outs, impl.Run(ex, ch))
	}
	return mergeDatasets(outs)
}

// chunks reports whether runChunked splits the share into chunk-size
// pieces: a share larger than a non-zero chunk size.
func chunks(share *motif.Dataset, chunkSize uint64) bool {
	return chunkSize != 0 && share.SizeBytes() > chunkSize
}

// splitDataset divides a data set into up to n roughly equal parts along its
// dominant collection.  Data sets that cannot be split (graphs, matrices)
// are returned as a single share.
func splitDataset(in *motif.Dataset, n int) []*motif.Dataset {
	if n <= 1 {
		return []*motif.Dataset{in}
	}
	switch {
	case len(in.Records) >= n:
		return splitBy(n, len(in.Records), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Records: in.Records[lo:hi]}
		})
	case len(in.Vectors) >= n:
		return splitBy(n, len(in.Vectors), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Vectors: in.Vectors[lo:hi]}
		})
	case len(in.Keys) >= n:
		return splitBy(n, len(in.Keys), func(lo, hi int) *motif.Dataset {
			d := &motif.Dataset{Keys: in.Keys[lo:hi]}
			if len(in.Values) == len(in.Keys) {
				d.Values = in.Values[lo:hi]
			}
			return d
		})
	case len(in.Words) >= n:
		return splitBy(n, len(in.Words), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Words: in.Words[lo:hi]}
		})
	case len(in.Floats) >= n:
		return splitBy(n, len(in.Floats), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Floats: in.Floats[lo:hi]}
		})
	case len(in.Bytes) >= n:
		return splitBy(n, len(in.Bytes), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Bytes: in.Bytes[lo:hi]}
		})
	case len(in.Tensors) >= n:
		return splitBy(n, len(in.Tensors), func(lo, hi int) *motif.Dataset {
			return &motif.Dataset{Tensors: in.Tensors[lo:hi]}
		})
	default:
		return []*motif.Dataset{in}
	}
}

// unsplittable reports whether no task count splits the data set: it does
// not split in two, so none of splitDataset's collections holds more than
// one element.
func unsplittable(in *motif.Dataset) bool {
	return len(splitDataset(in, 2)) == 1
}

func splitBy(n, length int, slice func(lo, hi int) *motif.Dataset) []*motif.Dataset {
	out := make([]*motif.Dataset, 0, n)
	for i := 0; i < n; i++ {
		lo := i * length / n
		hi := (i + 1) * length / n
		if lo >= hi {
			continue
		}
		out = append(out, slice(lo, hi))
	}
	return out
}

// mergeDatasets concatenates the outputs of parallel tasks into one data
// set.
func mergeDatasets(parts []*motif.Dataset) *motif.Dataset {
	out := &motif.Dataset{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Records = append(out.Records, p.Records...)
		out.Keys = append(out.Keys, p.Keys...)
		out.Values = append(out.Values, p.Values...)
		out.Words = append(out.Words, p.Words...)
		out.Vectors = append(out.Vectors, p.Vectors...)
		out.Floats = append(out.Floats, p.Floats...)
		out.Bytes = append(out.Bytes, p.Bytes...)
		out.Tensors = append(out.Tensors, p.Tensors...)
		if out.Graph == nil && p.Graph != nil {
			out.Graph = p.Graph
		}
		if out.Matrix == nil && p.Matrix != nil {
			out.Matrix = p.Matrix
			out.Rows, out.Cols = p.Rows, p.Cols
		}
	}
	return out
}

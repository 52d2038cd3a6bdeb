// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in this one process, calls each layer only through its public
// API, checks every output, and prints every metric with its unit; the last
// line of its output is a JSON result. From the repository root:
//
//	bash perfbench/run.sh --workload qualify|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json from an
// untraced run. With --trace 1 it runs the timed phase twice, untraced and
// then traced, and reports the per-layer metrics: spans around every call it
// makes and inside the handlers it mounts, a CPU profile split by package,
// and the tracing overhead. Spans and the profile are written under
// .bench_build/traces.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"dataproxy/internal/parallel"
	"dataproxy/internal/workloads"
)

// endToEnd and perLayer are the metrics a run reports, in the order they
// are printed; BENCHMARK.json lists the same names and units. moves names the
// end-to-end metric, and the workload, that a per-layer metric should move.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"ops_per_s", "1/s", ""},
	{"cpu_ms_per_op", "ms", ""},
	{"p50_ms", "ms", ""},
	{"p99_ms", "ms", ""},
	{"accuracy_avg", "ratio", ""},
	{"speedup_geomean", "x", ""},
}

var perLayer = []metricDef{
	{"workloads.real_s", "s", "setup_s on qualify"},
	{"tuner.tune_s.terasort", "s", "ops_per_s on qualify"},
	{"tuner.tune_s.kmeans", "s", "ops_per_s on qualify"},
	{"tuner.tune_s.pagerank", "s", "ops_per_s on qualify"},
	{"tuner.tune_s.alexnet", "s", "ops_per_s on qualify"},
	{"tuner.tune_s.inception", "s", "ops_per_s on qualify"},
	{"tuner.sims", "count", "cpu_ms_per_op on qualify"},
	{"tuner.memo_hit_ratio", "ratio", "cpu_ms_per_op on qualify"},
	{"tuner.converged", "count", "accuracy_avg on qualify"},
	{"cpu.arch", "ms/op", "cpu_ms_per_op on qualify and sweep, not on serve"},
	{"cpu.sim", "ms/op", "cpu_ms_per_op on qualify and sweep, not on serve"},
	{"cpu.motif", "ms/op", "cpu_ms_per_op on qualify and sweep, not on serve"},
	{"cpu.core", "ms/op", "cpu_ms_per_op on qualify and sweep, not on serve"},
	{"cpu.tuner", "ms/op", "cpu_ms_per_op on qualify and sweep, not on serve"},
	{"fleet.sims_per_group", "ratio", "cpu_ms_per_op on sweep"},
	{"client.self_ms", "ms", "ops_per_s on sweep, p50_ms on serve"},
	{"fleet.self_ms", "ms", "ops_per_s on sweep, p50_ms on serve"},
	{"serve.handler_ms", "ms", "ops_per_s on sweep, p50_ms on serve"},
	{"serve.hit_ratio", "ratio", "p50_ms on serve"},
	{"cpu.serve", "ms/op", "cpu_ms_per_op on serve"},
	{"cpu.fleet", "ms/op", "cpu_ms_per_op on serve"},
	{"cpu.json", "ms/op", "cpu_ms_per_op on serve"},
	{"cpu.net", "ms/op", "cpu_ms_per_op on serve"},
	{"cpu.runtime", "ms/op", "cpu_ms_per_op on serve"},
	{"go.alloc_kb_per_op", "KB", "p99_ms and cpu_ms_per_op on serve, peak_rss_mb on sweep"},
	{"go.gc_pause_ms", "ms", "p99_ms on serve"},
	{"trace.overhead_pct", "%", "nothing: the cost of tracing itself"},
}

type metricDef struct{ name, unit, moves string }

// setups is how many times an untraced run sets up; setup_s is their median.
const setups = 3

// workload is one benchmark workload. setup builds what the timed phase
// needs; run performs ops until the deadline; finish checks what needs the
// whole run and scores the results; layers adds the workload's per-layer
// metrics from a traced phase.
type workload interface {
	setup(tr *tracer) error
	run(tr *tracer, deadline time.Time, ph *phase) error
	finish(out *outcome) error
	layers(tr *tracer, ph *phase, m map[string]float64)
	close()
}

func newWorkload(name string, seed int64, procs int) (workload, error) {
	switch name {
	case "qualify":
		return newQualify(workloads.PaperWorkloads()), nil
	case "sweep":
		return newSweep(seed), nil
	case "serve":
		return newServe(seed, procs), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want qualify, sweep or serve)", name)
}

// phase is what one timed phase did and cost. It is cut into windows at
// boundaries of the workload's own work (a pass of qualify, a round of
// sweep, a twentieth of the run on serve); rates and latency percentiles are
// medians over windows, so a burst of outside load moves few of them.
type phase struct {
	ops, failed   int64
	hits, answers int // results answered from cache, results received
	lat           []time.Duration
	windows       []window
	firstErr      error

	alloc   uint64
	gcPause time.Duration
	peakRSS float64 // MB

	// start of the open window: time, process CPU time, ops and latencies
	winStart time.Time
	winCPU   time.Duration
	winOps   int64
	winLat   int
}

// window is the work and cost of one window.
type window struct {
	wall, cpu time.Duration
	ops       int64
	lat       []time.Duration
}

// mark closes the open window and opens the next.
func (ph *phase) mark() {
	now, c := time.Now(), cpuTime()
	ph.windows = append(ph.windows, window{now.Sub(ph.winStart), c - ph.winCPU, ph.ops - ph.winOps, ph.lat[ph.winLat:]})
	ph.winStart, ph.winCPU, ph.winOps, ph.winLat = now, c, ph.ops, len(ph.lat)
}

// fail counts n failed ops; err, if any, explains the first failure.
func (ph *phase) fail(n int64, err error) {
	ph.failed += n
	if err != nil && ph.firstErr == nil {
		ph.firstErr = err
	}
}

func (ph *phase) merge(o *phase) {
	ph.ops += o.ops
	ph.hits += o.hits
	ph.answers += o.answers
	ph.lat = append(ph.lat, o.lat...)
	ph.fail(o.failed, o.firstErr)
}

// perWindow returns the median over windows of f.
func (ph *phase) perWindow(f func(w window) float64) float64 {
	var xs []float64
	for _, w := range ph.windows {
		if w.ops > 0 {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

func (ph *phase) opsPerSec() float64 {
	return ph.perWindow(func(w window) float64 { return float64(w.ops) / w.wall.Seconds() })
}

// outcome is what a run learns after timing: scores of the results, the
// digest of simulated results, and ops failed by checks that need the whole
// run.
type outcome struct {
	accuracy, speedup float64
	digest            *digest
	digestOf          string
	phase             // failed ops only
}

func main() {
	name := flag.String("workload", "", "workload: qualify, sweep or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(name string, seed int64, length time.Duration, traceOn bool) error {
	// At most two host threads and two connections, so the measured
	// configuration is the same on every host with two or more CPUs.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	parallel.SetWorkers(procs)

	var tr *tracer
	n := setups
	if traceOn {
		tr, n = newTracer(), 1
	}
	var w workload
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, seed, procs); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer w.close()

	ref, err := timed(w, nil, length)
	if err != nil {
		return err
	}
	attempted, failed := ref.ops, ref.failed
	var trc phase
	var profile bytes.Buffer
	if traceOn {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
		trc, err = timed(w, tr, length)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		attempted, failed = attempted+trc.ops, failed+trc.failed
	}

	var out outcome
	if err := w.finish(&out); err != nil {
		return err
	}
	failed += out.failed
	for _, e := range []error{ref.firstErr, trc.firstErr, out.firstErr} {
		if e != nil {
			fmt.Println("first failure:", e)
			break
		}
	}
	fmt.Printf("digest %s over %d simulated results (%s)\n", out.digest, out.digest.n, out.digestOf)

	values, notes := map[string]float64{}, map[string]string{}
	defs := endToEnd
	if !traceOn {
		values["setup_s"] = median(setupTimes)
		values["peak_rss_mb"] = ref.peakRSS
		values["ops_per_s"] = ref.opsPerSec()
		values["cpu_ms_per_op"] = ref.perWindow(func(w window) float64 { return ms(w.cpu) / float64(w.ops) })
		values["accuracy_avg"] = out.accuracy
		values["speedup_geomean"] = out.speedup
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
			values[q.name] = ref.perWindow(func(w window) float64 { return ms(percentile(w.lat, q.p)) })
			n := ref.perWindow(func(w window) float64 { return float64(len(w.lat)) })
			notes[q.name] = fmt.Sprintf("median of %d windows of %.0f samples, %.0f beyond it", len(ref.windows), n, math.Floor(n*(1-q.p)))
		}
	} else {
		defs = perLayer
		w.layers(tr, &trc, values)
		if err := cpuLayerValues(profile.Bytes(), trc.ops, values); err != nil {
			return err
		}
		values["go.alloc_kb_per_op"] = float64(ref.alloc) / 1024 / float64(ref.ops)
		values["go.gc_pause_ms"] = ms(ref.gcPause)
		refRate, trcRate := ref.opsPerSec(), trc.opsPerSec()
		values["trace.overhead_pct"] = 100 * (refRate - trcRate) / refRate
		fmt.Printf("ops_per_s untraced %.6g, traced %.6g\n", refRate, trcRate)
		dir := filepath.Join(".bench_build", "traces")
		base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
		if err := tr.write(base + ".spans.gz"); err != nil {
			return err
		}
		if err := os.WriteFile(base+".cpu.pprof", profile.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("spans and cpu profile written to %s.*\n", base)
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		v, ok := values[d.name]
		note := notes[d.name]
		switch {
		case !ok:
			note = "layer not exercised by " + name
		case d.moves != "":
			note = "should move " + d.moves
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("%-24s %14.6g %-6s %s\n", d.name, v, d.unit, note)
		metrics[d.name] = metricOut{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timed runs one timed phase of w. It starts from a collected heap with
// free memory returned to the system, and measures the phase's allocation,
// GC pauses and peak resident memory.
func timed(w workload, tr *tracer, length time.Duration) (phase, error) {
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	runtime.ReadMemStats(&m0)
	ph := phase{winStart: time.Now(), winCPU: cpuTime()}
	err := w.run(tr, ph.winStart.Add(length), &ph)
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ph.peakRSS = peakRSS(rssErr == nil)
	if err == nil && ph.ops == 0 {
		err = errors.New("timed phase completed no op")
	}
	return ph, err
}

// cpuLayerValues sets each cpu.* metric to its packages' self CPU per op.
func cpuLayerValues(profile []byte, ops int64, values map[string]float64) error {
	byPkg, err := selfCPU(profile)
	if err != nil {
		return err
	}
	var total, covered time.Duration
	for _, l := range cpuLayers {
		values[l.metric] = 0
	}
	for pkg, d := range byPkg {
		total += d
		if l := layerOf(pkg); l != "" {
			values[l] += ms(d) / float64(ops)
			covered += d
		}
	}
	fmt.Printf("cpu profile: %.1f ms per op, %.0f%% of it in the cpu.* layers\n",
		ms(total)/float64(ops), 100*covered.Seconds()/total.Seconds())
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-memory mark (VmHWM) at
// the current resident size.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS returns the peak resident memory in MB since resetPeakRSS, or over
// the whole process when reset is false because the mark could not be reset.
func peakRSS(reset bool) float64 {
	if status, err := os.ReadFile("/proc/self/status"); reset && err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var v float64
				if _, err := fmt.Sscanf(kb, "%g kB", &v); err == nil {
					return v / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the median of xs, NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile interpolates linearly between the closest ranks of lat.
func percentile(lat []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

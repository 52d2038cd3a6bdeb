// Command benchjson converts the stream produced by `go test -json -bench`
// on stdin into a compact JSON summary of the benchmark results on stdout.
// It exists so `make bench-json` can track the cache-engine hot path in a
// machine-readable file (BENCH_cache.json) without any dependency beyond the
// standard library.
//
//	go test -run='^$' -bench='CacheAccess|ExecLoad' -benchmem -json ./... | benchjson > BENCH_cache.json
//
// With -compare it becomes the bench regression gate of `make bench-check`:
// the fresh stream on stdin is diffed against the committed baseline and the
// command fails when a benchmark regresses by more than -tolerance in ns/op,
// when a zero-alloc benchmark gains allocations, or when a baseline
// benchmark is missing from the fresh run:
//
//	go test -run='^$' -bench=... -benchmem -json ./... | benchjson -compare BENCH_cache.json -tolerance 0.25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event schema benchjson
// needs.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// result is one benchmark line in the summary.
type result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type summary struct {
	GeneratedBy string   `json:"generated_by"`
	Benchmarks  []result `json:"benchmarks"`
}

func main() {
	compareFile := flag.String("compare", "", "baseline JSON file to diff the fresh stdin results against (bench regression gate)")
	tolerance := flag.Float64("tolerance", 0.25, "accepted fractional ns/op regression in -compare mode (0.25 = 25%)")
	flag.Parse()

	sum, err := readSummary(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *compareFile != "" {
		base, err := loadBaseline(*compareFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		failures := compare(os.Stdout, base, sum, *tolerance)
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "benchjson: FAIL %s\n", f)
			}
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// readSummary parses a `go test -json -bench` stream into a summary.
// Repeated measurements of one benchmark (`go test -count=N`) are merged
// into a single entry: minimum ns/op (the robust "how fast can this code
// go" estimator, insensitive to scheduler noise) and maximum B/op and
// allocs/op (allocation counts are deterministic, so any observed
// allocation is real and must not be averaged away).
func readSummary(r io.Reader) (summary, error) {
	sum := summary{GeneratedBy: "make bench-json"}
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise (plain `go test -bench` output)
		}
		if ev.Action != "output" {
			continue
		}
		res, ok := parseBenchLine(ev.Package, ev.Test, ev.Output)
		if !ok {
			continue
		}
		key := res.Package + "|" + res.Name
		i, seen := index[key]
		if !seen {
			index[key] = len(sum.Benchmarks)
			sum.Benchmarks = append(sum.Benchmarks, res)
			continue
		}
		prev := &sum.Benchmarks[i]
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
		}
		for unit, v := range res.Metrics {
			if v > prev.Metrics[unit] {
				if prev.Metrics == nil {
					prev.Metrics = map[string]float64{}
				}
				prev.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("reading stdin: %w", err)
	}
	if len(sum.Benchmarks) == 0 {
		return sum, fmt.Errorf("no benchmark results found on stdin")
	}
	return sum, nil
}

// stripProcSuffix removes the trailing `-P` GOMAXPROCS marker go test
// appends to benchmark names ("BenchmarkCacheAccessLine-4" ->
// "BenchmarkCacheAccessLine").  Sub-benchmark separators are untouched.
// Corollary: tracked benchmark (or sub-benchmark) names must not themselves
// end in "-<digits>" — at GOMAXPROCS=1 go test omits its marker and such a
// name would be over-stripped; prefer "size=1024" over "size-1024".
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// loadBaseline reads a previously committed summary (BENCH_cache.json).
func loadBaseline(path string) (summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return summary{}, err
	}
	var sum summary
	if err := json.Unmarshal(data, &sum); err != nil {
		return summary{}, fmt.Errorf("decoding baseline %s: %w", path, err)
	}
	return sum, nil
}

// compare diffs the fresh results against the baseline and returns the gate
// failures: ns/op regressions beyond the tolerance, new allocations on
// zero-alloc benchmarks, and baseline benchmarks missing from the fresh run.
// Fresh benchmarks absent from the baseline are reported but not gated, so
// adding a benchmark does not require refreshing the baseline in the same
// change.  A comparison table is written to w.
func compare(w io.Writer, base, fresh summary, tolerance float64) []string {
	type key struct{ pkg, name string }
	freshBy := make(map[key]result, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		freshBy[key{r.Package, r.Name}] = r
	}

	var failures []string
	fmt.Fprintf(w, "%-55s %12s %12s %8s\n", "benchmark (vs baseline)", "base ns/op", "fresh ns/op", "delta")
	for _, b := range base.Benchmarks {
		f, ok := freshBy[key{b.Package, b.Name}]
		if !ok {
			fmt.Fprintf(w, "%-55s %12.0f %12s %8s\n", b.Name, b.NsPerOp, "-", "gone")
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the fresh run", b.Name))
			continue
		}
		delete(freshBy, key{b.Package, b.Name})
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = f.NsPerOp/b.NsPerOp - 1
		}
		fmt.Fprintf(w, "%-55s %12.0f %12.0f %+7.1f%%\n", b.Name, b.NsPerOp, f.NsPerOp, delta*100)
		if delta > tolerance {
			failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
				b.Name, delta*100, b.NsPerOp, f.NsPerOp, tolerance*100))
		}
		if b.Metrics["allocs/op"] == 0 && f.Metrics["allocs/op"] > 0 {
			failures = append(failures, fmt.Sprintf("%s: zero-alloc benchmark now allocates %.0f allocs/op",
				b.Name, f.Metrics["allocs/op"]))
		}
	}
	for _, r := range fresh.Benchmarks {
		if _, ok := freshBy[key{r.Package, r.Name}]; ok {
			fmt.Fprintf(w, "%-55s %12s %12.0f %8s\n", r.Name, "-", r.NsPerOp, "new")
		}
	}
	return failures
}

// parseBenchLine parses one benchmark result output line; ok is false for
// any other output.  The line is either the combined
// `Benchmark<Name>-P  N  V unit  [V unit ...]` form, or — when the harness
// prints the name on its own line (e.g. GOMAXPROCS=1) — just
// `N  V unit  [V unit ...]` with the name carried by the event's Test field.
// The `-P` GOMAXPROCS suffix is stripped from the name, so baselines
// recorded on one host compare cleanly against runs on a host with a
// different core count.
func parseBenchLine(pkg, test, line string) (result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	name := ""
	switch {
	case len(fields) >= 4 && strings.HasPrefix(fields[0], "Benchmark"):
		name = stripProcSuffix(fields[0])
		fields = fields[1:]
	case len(fields) >= 3 && strings.HasPrefix(test, "Benchmark"):
		name = stripProcSuffix(test)
	default:
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Package: pkg, Name: name, Iterations: iters}
	// The remainder is value/unit pairs: "7616 ns/op", "16 B/op", ...
	seen := false
	for i := 1; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		if fields[i+1] == "ns/op" {
			r.NsPerOp = v
			seen = true
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, seen
}

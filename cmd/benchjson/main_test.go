package main

import (
	"io"
	"strings"
	"testing"
)

func bench(name string, ns float64, allocs float64) result {
	return result{
		Package: "dataproxy/internal/arch",
		Name:    name,
		NsPerOp: ns,
		Metrics: map[string]float64{"allocs/op": allocs},
	}
}

func TestCompareWithinToleranceAndNewBenchPasses(t *testing.T) {
	base := summary{Benchmarks: []result{bench("BenchmarkCacheAccessLine", 1000, 0)}}
	fresh := summary{Benchmarks: []result{
		bench("BenchmarkCacheAccessLine", 1200, 0),
		bench("BenchmarkBrandNew", 50, 3),
	}}
	if failures := compare(io.Discard, base, fresh, 0.25); len(failures) != 0 {
		t.Fatalf("within-tolerance comparison failed: %v", failures)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := summary{Benchmarks: []result{bench("BenchmarkCacheAccessLine", 1000, 0)}}
	fresh := summary{Benchmarks: []result{bench("BenchmarkCacheAccessLine", 2000, 0)}}
	failures := compare(io.Discard, base, fresh, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "regressed") {
		t.Fatalf("2x slowdown must fail the gate, got %v", failures)
	}
}

func TestCompareFailsOnNewAllocsAndMissingBench(t *testing.T) {
	base := summary{Benchmarks: []result{
		bench("BenchmarkZeroAlloc", 1000, 0),
		bench("BenchmarkGone", 500, 0),
	}}
	fresh := summary{Benchmarks: []result{bench("BenchmarkZeroAlloc", 1000, 2)}}
	failures := compare(io.Discard, base, fresh, 0.25)
	if len(failures) != 2 {
		t.Fatalf("want alloc + missing failures, got %v", failures)
	}
	joined := strings.Join(failures, "\n")
	if !strings.Contains(joined, "allocates") || !strings.Contains(joined, "missing") {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestReadSummaryParsesGoTestJSON(t *testing.T) {
	stream := `{"Action":"output","Package":"p","Test":"BenchmarkX","Output":"BenchmarkX-8  100  123 ns/op  0 B/op  0 allocs/op\n"}`
	sum, err := readSummary(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 1 || sum.Benchmarks[0].NsPerOp != 123 {
		t.Fatalf("parsed %+v", sum.Benchmarks)
	}
	if sum.Benchmarks[0].Name != "BenchmarkX" {
		t.Fatalf("name %q: the GOMAXPROCS suffix must be stripped so a baseline from a 1-CPU host matches a multi-core run", sum.Benchmarks[0].Name)
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkCacheAccessLine-4":      "BenchmarkCacheAccessLine",
		"BenchmarkExecLoad/hot/batched-8": "BenchmarkExecLoad/hot/batched",
		"BenchmarkCacheAccessLine":        "BenchmarkCacheAccessLine",
		"BenchmarkTune/sequential":        "BenchmarkTune/sequential",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadSummaryMergesRepeatedRunsMinNsMaxAllocs(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"p","Test":"BenchmarkX","Output":"BenchmarkX-8  100  200 ns/op  16 B/op  0 allocs/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkX","Output":"BenchmarkX-8  100  120 ns/op  16 B/op  2 allocs/op\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkX","Output":"BenchmarkX-8  100  150 ns/op  16 B/op  0 allocs/op\n"}`,
	}, "\n")
	sum, err := readSummary(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 1 {
		t.Fatalf("repeated runs must merge into one entry, got %+v", sum.Benchmarks)
	}
	b := sum.Benchmarks[0]
	if b.NsPerOp != 120 {
		t.Errorf("ns/op %v, want the minimum 120", b.NsPerOp)
	}
	if b.Metrics["allocs/op"] != 2 {
		t.Errorf("allocs/op %v, want the maximum 2 (allocations must not be averaged away)", b.Metrics["allocs/op"])
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
	"dataproxy/pkg/client"
)

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for p, w := range fleetWorkloads {
		if !reflect.DeepEqual(sweepBatch(7, 3, p), sweepBatch(7, 3, p)) ||
			!reflect.DeepEqual(warmBatch(7, p), warmBatch(7, p)) ||
			!reflect.DeepEqual(universe(7, p), universe(7, p)) {
			t.Fatalf("%s: the same seed generated different settings", w)
		}
		if reflect.DeepEqual(sweepBatch(7, 3, p), sweepBatch(8, 3, p)) || reflect.DeepEqual(sweepBatch(7, 3, p), sweepBatch(7, 4, p)) {
			t.Fatalf("%s: another seed or round generated the same batch", w)
		}
		b, err := proxy.ForWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]map[string]float64{sweepBatch(7, 3, p), universe(7, p)} {
			f := &fleetProc{proxies: map[string]*core.Benchmark{w: b}}
			if got, want := f.groups(w, batch), len(batch)/lanesOf(batch); got != want {
				t.Fatalf("%s: %d trace groups, want %d", w, got, want)
			}
		}
		for _, s := range warmBatch(7, p) {
			if s["dataSize"] < 2 {
				t.Fatalf("%s: warm-up setting %v overlaps the timed range", w, s)
			}
		}
	}
	a, b := newPicker(7, 1, 256), newPicker(7, 1, 256)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("the same seed and connection drew different requests")
		}
	}
}

// lanesOf counts the settings sharing the first setting's trace shape.
func lanesOf(batch []map[string]float64) int {
	n := 0
	for _, s := range batch {
		if s["chunkSize"] == batch[0]["chunkSize"] {
			n++
		}
	}
	return n
}

// metricBytes returns the canonical encoding of a valid metric vector.
func metricBytes(t *testing.T, m perf.Metrics) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleMetrics(scale float64) perf.Metrics {
	return perf.Metrics{
		Runtime: 12.5 * scale, IPC: 0.8, MIPS: 1600, LoadRatio: 0.3, StoreRatio: 0.1,
		BranchRatio: 0.15, IntRatio: 0.4, FloatRatio: 0.05, BranchMissRatio: 0.02,
		L1IHit: 0.98, L1DHit: 0.95, L2Hit: 0.6, L3Hit: 0.4,
		ReadBW: 1e9, WriteBW: 5e8, MemBW: 1.5e9, DiskBW: 2e8,
	}
}

// flip changes the first nonzero digit of metric key's value.
func flip(b []byte, key string) []byte {
	out := append([]byte(nil), b...)
	at := bytes.Index(out, []byte(`"`+key+`"`))
	i := at + bytes.IndexAny(out[at:], "123456789")
	out[i] = '0' + (out[i]-'0')%9 + 1
	return out
}

func TestCheckTunedFailsOnAFlippedMetric(t *testing.T) {
	target, tuned := sampleMetrics(1), sampleMetrics(0.01)
	tuned.IPC = 0.5
	res := tuner.Result{ProxyMetrics: tuned, Report: perf.CompareMetrics(target, tuned, nil)}
	if err := checkTuned(target, res); err != nil {
		t.Fatalf("a consistent tune failed its check: %v", err)
	}
	var flipped perf.Metrics
	if err := json.Unmarshal(flip(metricBytes(t, tuned), "IPC"), &flipped); err != nil {
		t.Fatal(err)
	}
	res.ProxyMetrics = flipped
	if checkTuned(target, res) == nil {
		t.Fatal("a flipped metric byte passed the check")
	}
	res.ProxyMetrics = tuned
	res.ProxyMetrics.L2Hit = 1.5
	if checkTuned(target, res) == nil {
		t.Fatal("an out-of-range metric passed the check")
	}
}

func TestCheckBatchFailsOnADroppedOrCachedResult(t *testing.T) {
	resp := &client.RunBatchResponse{}
	for i := 0; i < 4; i++ {
		resp.Results = append(resp.Results, client.RunResult{Metrics: metricBytes(t, sampleMetrics(float64(i+1)))})
	}
	if failed, err := checkBatch(4, resp); failed != 0 || err != nil {
		t.Fatalf("a complete fresh batch failed: %d, %v", failed, err)
	}
	if failed, err := checkBatch(5, resp); failed != 1 || err == nil {
		t.Fatalf("a dropped result: %d failed, %v", failed, err)
	}
	resp.Results[2].Coalesced = true
	if failed, err := checkBatch(4, resp); failed != 1 || err == nil {
		t.Fatalf("a cached result: %d failed, %v", failed, err)
	}
	resp.Results[2].Coalesced = false
	resp.Results[1].Metrics = []byte(strings.Replace(string(resp.Results[1].Metrics), `"L2_hit":0.6`, `"L2_hit":6`, 1))
	if failed, err := checkBatch(4, resp); failed != 1 || err == nil {
		t.Fatalf("an out-of-range result: %d failed, %v", failed, err)
	}
}

func TestCheckHitFailsOnAFlippedByteOrACacheMiss(t *testing.T) {
	want := metricBytes(t, sampleMetrics(1))
	indented, err := json.MarshalIndent(json.RawMessage(want), "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	resp := &client.RunResponse{Coalesced: true, Metrics: indented}
	if err := checkHit(resp, want); err != nil {
		t.Fatalf("an indented hit with the warm-up bytes failed: %v", err)
	}
	resp.Metrics = flip(indented, "L3_hit")
	if checkHit(resp, want) == nil {
		t.Fatal("a flipped metric byte passed the check")
	}
	resp.Metrics, resp.Coalesced = want, false
	if checkHit(resp, want) == nil {
		t.Fatal("a cache miss passed the check")
	}
}

func TestBusyCountsParallelChildrenOnceAndConnectionsEach(t *testing.T) {
	ms := func(a, b int64) span { return span{start: a * 1e6, end: b * 1e6} }
	// One client call whose two sub-requests overlap: 8ms of waiting.
	if got := busy([]span{ms(1, 6), ms(2, 9)}, []span{ms(0, 10)}); got != 8*time.Millisecond {
		t.Fatalf("parallel sub-requests: %v", got)
	}
	// Two concurrent client calls with one request each: both count.
	if got := busy([]span{ms(1, 6), ms(2, 7)}, []span{ms(0, 8), ms(0, 9)}); got != 10*time.Millisecond {
		t.Fatalf("concurrent connections: %v", got)
	}
}

//go:noinline
func burn(n int) float64 {
	x := 0.0
	for i := 0; i < n; i++ {
		x += math.Sqrt(float64(i))
	}
	return x
}

func TestSelfCPUChargesTheInnermostPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		burn(1 << 20)
	}
	pprof.StopCPUProfile()
	byPkg, err := selfCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if byPkg["dataproxy/perfbench"] < 100*time.Millisecond {
		t.Fatalf("self time by package: %v", byPkg)
	}
	if got := pkgOf("dataproxy/internal/arch.(*Cache).probe"); got != "dataproxy/internal/arch" {
		t.Fatalf("pkgOf: %s", got)
	}
	if layerOf("internal/runtime/atomic") != "cpu.runtime" || layerOf("encoding/json") != "cpu.json" || layerOf("sort") != "" {
		t.Fatal("layerOf maps a package to the wrong layer")
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Fatalf("BENCHMARK.json lists %s (%s), the benchmark reports %s (%s)", m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// smoke sets a workload up, runs its timed phase briefly, and checks that no
// op failed.
func smoke(t *testing.T, w workload, length time.Duration) (phase, outcome) {
	t.Helper()
	defer w.close()
	if err := w.setup(newTracer()); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	ph, err := timed(w, tr, length)
	if err != nil {
		t.Fatal(err)
	}
	var out outcome
	if err := w.finish(&out); err != nil {
		t.Fatal(err)
	}
	if ph.failed+out.failed != 0 {
		t.Fatalf("%d ops failed: %v %v", ph.failed+out.failed, ph.firstErr, out.firstErr)
	}
	if !(out.accuracy > 0 && out.accuracy <= 1 && out.speedup > 1) {
		t.Fatalf("accuracy %v, speedup %v", out.accuracy, out.speedup)
	}
	if len(ph.windows) == 0 || len(tr.named("client.run"))+len(tr.named("tuner.tune")) == 0 {
		t.Fatal("the traced phase recorded no window or span")
	}
	return ph, out
}

func TestSmokeQualify(t *testing.T) {
	var specs []workloads.Spec
	for _, s := range workloads.PaperWorkloads() {
		if s.ShortName == "kmeans" || s.ShortName == "alexnet" {
			specs = append(specs, s)
		}
	}
	ph, _ := smoke(t, newQualify(specs), time.Millisecond)
	if ph.ops != 2 {
		t.Fatalf("%d ops, want one per proxy", ph.ops)
	}
}

func TestSmokeSweep(t *testing.T) {
	w := newSweep(3)
	ph, _ := smoke(t, w, time.Millisecond)
	if ph.ops != 128 || ph.hits != 0 {
		t.Fatalf("%d ops, %d cache hits; want one round of 128 cold settings", ph.ops, ph.hits)
	}
	m := map[string]float64{}
	w.layers(newTracer(), &ph, m)
	if m["fleet.sims_per_group"] < 1 {
		t.Fatalf("%v simulations per trace group", m["fleet.sims_per_group"])
	}
}

func TestSmokeServe(t *testing.T) {
	ph, out := smoke(t, newServe(3, 2), 300*time.Millisecond)
	if ph.hits != ph.answers || ph.answers == 0 {
		t.Fatalf("%d of %d answers were cache hits", ph.hits, ph.answers)
	}
	if _, again := smoke(t, newServe(3, 2), time.Millisecond); again.digest.String() != out.digest.String() {
		t.Fatalf("the same seed simulated different results: digest %s, then %s", out.digest, again.digest)
	}
}

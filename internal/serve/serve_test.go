package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
	"dataproxy/pkg/client"
)

// newTestServer boots a Server and an httptest front end, both torn down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthzAndListings(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	resp, body := getJSON(t, ts.URL+"/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/workloads status %d", resp.StatusCode)
	}
	var infos []client.WorkloadInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(proxy.Workloads()) {
		t.Fatalf("got %d workloads, want %d", len(infos), len(proxy.Workloads()))
	}

	resp, body = getJSON(t, ts.URL+"/v1/archs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/archs status %d", resp.StatusCode)
	}
	var archs []client.ArchInfo
	if err := json.Unmarshal(body, &archs); err != nil {
		t.Fatal(err)
	}
	if len(archs) != len(arch.Profiles()) {
		t.Fatalf("got %d archs, want %d", len(archs), len(arch.Profiles()))
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]client.RunRequest{
		"unknown workload":  {Workload: "wordcount"},
		"unknown arch":      {Workload: "terasort", Arch: "skylake"},
		"unknown parameter": {Workload: "terasort", Setting: map[string]float64{"dataSizes": 2}},
		"bad factor":        {Workload: "terasort", Setting: map[string]float64{"dataSize": -1}},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for name, req := range map[string]any{
		"both setting and settings": client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 2}, Settings: []map[string]float64{{"dataSize": 3}}},
		"empty settings batch":      map[string]any{"workload": "terasort", "settings": []any{}},
		"bad setting in batch":      client.RunRequest{Workload: "terasort", Settings: []map[string]float64{{"dataSize": 2}, {"dataSize": -1}}},
		"unknown param in batch":    client.RunRequest{Workload: "terasort", Settings: []map[string]float64{{"dataSizes": 2}}},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/run", map[string]any{"workload": "terasort", "setings": nil})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// runMetricsJSON extracts the served metric-vector bytes of a run response
// body, compacted (the Coalesced flag legitimately differs between the
// executing request and its coalesced twins, so bodies are compared on the
// metric payload).
func runMetricsJSON(t *testing.T, body []byte) string {
	t.Helper()
	var rr client.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decoding run response %s: %v", body, err)
	}
	data, err := json.Marshal(rr.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if m := decodeMetrics(t, rr.Metrics); rr.RuntimeSeconds != m.Runtime {
		t.Fatalf("runtime_seconds %g != metrics runtime %g", rr.RuntimeSeconds, m.Runtime)
	}
	return string(data)
}

// decodeMetrics decodes a raw metric vector of a response body.
func decodeMetrics(t *testing.T, raw json.RawMessage) perf.Metrics {
	t.Helper()
	var m perf.Metrics
	if err := m.UnmarshalJSON(raw); err != nil {
		t.Fatalf("decoding metric vector %s: %v", raw, err)
	}
	return m
}

// TestRunCoalescesAndIsDeterministic is the serving layer's core property
// test: a burst of identical /v1/run requests executes exactly one
// simulation, every response carries bit-identical metrics, and the metrics
// are bit-identical at any host worker count.
func TestRunCoalescesAndIsDeterministic(t *testing.T) {
	req := client.RunRequest{Workload: "terasort", Arch: "westmere", Setting: map[string]float64{"dataSize": 1.5, "numTasks": 0.5}}
	var perWorkerCount []string
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		t.Cleanup(func() { parallel.SetWorkers(prev) })

		s, ts := newTestServer(t, Config{})
		const burst = 6
		bodies := make([][]byte, burst)
		statuses := make([]int, burst)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := postJSON(t, ts.URL+"/v1/run", req)
				statuses[i] = resp.StatusCode
				bodies[i] = body
			}(i)
		}
		wg.Wait()

		metrics := ""
		for i := 0; i < burst; i++ {
			if statuses[i] != http.StatusOK {
				t.Fatalf("workers=%d request %d: status %d body %s", workers, i, statuses[i], bodies[i])
			}
			m := runMetricsJSON(t, bodies[i])
			if metrics == "" {
				metrics = m
			} else if m != metrics {
				t.Fatalf("workers=%d request %d: metrics diverge:\n%s\nvs\n%s", workers, i, m, metrics)
			}
		}
		if got := s.sched.executed.Load(); got != 1 {
			t.Fatalf("workers=%d: %d simulations executed for %d identical requests, want 1", workers, got, burst)
		}
		if got := s.sched.coalesced.Load(); got != burst-1 {
			t.Fatalf("workers=%d: %d coalesced, want %d", workers, got, burst-1)
		}
		perWorkerCount = append(perWorkerCount, metrics)
	}
	if perWorkerCount[0] != perWorkerCount[1] {
		t.Fatalf("metrics differ across worker counts:\n%s\nvs\n%s", perWorkerCount[0], perWorkerCount[1])
	}
}

// TestRunMatchesDirectExecution pins the serving path to the library path:
// the metric vector served by /v1/run equals a direct core.Run of the same
// benchmark and setting on a fresh single-node cluster.  The second,
// distinct setting necessarily executes on a recycled cluster from the
// scheduler's pool (sequential requests drain and refill it), so it also
// pins pooled re-execution to fresh-cluster execution.
func TestRunMatchesDirectExecution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, setting := range []core.Setting{{"dataSize": 0.8}, {"dataSize": 1.4, "numTasks": 0.5}} {
		resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "kmeans", Setting: setting})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
		served := runMetricsJSON(t, body)

		b, err := proxy.ForWorkload("kmeans")
		if err != nil {
			t.Fatal(err)
		}
		cluster := testutil.WestmereCluster()
		rep, err := core.Run(cluster, b, setting)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := json.Marshal(rep.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if served != string(direct) {
			t.Fatalf("setting %v: served metrics diverge from direct execution:\n%s\nvs\n%s", setting, served, direct)
		}
	}
}

// TestRunShedsOverloadWith429 drives the admission queue: with one slot and
// no queue, a second distinct request must be shed with 429 while the first
// still executes, and succeed once retried after the slot frees up.
func TestRunShedsOverloadWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.sched.evalFn = func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
		started <- struct{}{}
		<-release
		ms := make([]perf.Metrics, len(settings))
		fresh := make([]bool, len(settings))
		for i, setting := range settings {
			ms[i] = perf.Metrics{Runtime: setting.Get("dataSize")}
			fresh[i] = true
		}
		return ms, fresh, make([]error, len(settings))
	}

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 1}})
		first <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never started executing")
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 2}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}

	close(release)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", status)
	}
	resp, body = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed: status %d body %s", resp.StatusCode, body)
	}
	if got := s.sched.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
}

// TestRunBatchMixedWarmColdExecutesOnlyCold is the serving layer's batch
// contract test: settings already in the result cache are answered with zero
// new simulations, the cold remainder executes once per distinct setting, and
// every result arrives in request order, bit-identical to its single-request
// twin.
func TestRunBatchMixedWarmColdExecutesOnlyCold(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	warm := []map[string]float64{{"dataSize": 0.8}, {"dataSize": 1.2}}
	singles := make([]string, len(warm))
	for i, setting := range warm {
		resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: setting})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d body %s", i, resp.StatusCode, body)
		}
		singles[i] = runMetricsJSON(t, body)
	}
	if got := s.sched.executed.Load(); got != 2 {
		t.Fatalf("warmup executed %d simulations, want 2", got)
	}

	// Two warm settings, one cold setting submitted twice: only the distinct
	// cold setting may simulate.
	batch := []map[string]float64{{"dataSize": 1.2}, {"dataSize": 2.0}, {"dataSize": 0.8}, {"dataSize": 2.0}}
	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Settings: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	var br client.RunBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(batch) {
		t.Fatalf("batch returned %d results for %d settings", len(br.Results), len(batch))
	}
	if got := s.sched.executed.Load(); got != 3 {
		t.Fatalf("executed %d total simulations after the mixed batch, want 3 (batch must only simulate its one distinct cold setting)", got)
	}
	for i, wantCoalesced := range []bool{true, false, true, true} {
		if br.Results[i].Coalesced != wantCoalesced {
			t.Errorf("result %d: coalesced=%v, want %v", i, br.Results[i].Coalesced, wantCoalesced)
		}
	}
	metricsJSON := func(i int) string {
		data, err := json.Marshal(br.Results[i].Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if metricsJSON(0) != singles[1] || metricsJSON(2) != singles[0] {
		t.Fatal("warm batch results diverge from their single-request twins")
	}
	if metricsJSON(1) != metricsJSON(3) {
		t.Fatal("duplicate settings within one batch returned different metrics")
	}

	// The batch's cold execution is keyed like any other: a later legacy
	// single request for it must coalesce with identical metrics.
	resp, body = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 2.0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-batch single: status %d body %s", resp.StatusCode, body)
	}
	var rr client.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Coalesced {
		t.Fatal("single request after batch should coalesce with the batch's cached execution")
	}
	if got := runMetricsJSON(t, body); got != metricsJSON(1) {
		t.Fatal("single request after batch diverges from the batch result")
	}
}

// TestRunBatchShedsWholeBatch pins the documented all-or-nothing batch
// admission: while the only slot is busy, a batch with any cold setting is
// shed with 429 as a unit (no partial results, warm members included), while
// an all-warm batch is still answered without admission at all.
func TestRunBatchShedsWholeBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	var calls atomic.Int32
	measure := measureDataSize(s.sched)
	s.sched.evalFn = func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
		if calls.Add(1) > 1 {
			started <- struct{}{}
			<-release
		}
		return measure(pool, b, settings)
	}

	// Warm dataSize=1 (first evalFn call does not block), then park the only
	// slot with a cold single run.
	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d body %s", resp.StatusCode, body)
	}
	parked := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 2}})
		parked <- resp.StatusCode
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("parking request never started executing")
	}

	mixed := client.RunRequest{Workload: "terasort", Settings: []map[string]float64{{"dataSize": 1}, {"dataSize": 3}}}
	resp, body = postJSON(t, ts.URL+"/v1/run", mixed)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("mixed batch under load: status %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 batch response is missing Retry-After")
	}
	if strings.Contains(string(body), `"results"`) {
		t.Fatalf("shed batch must not carry partial results, got %s", body)
	}

	// All-warm batches bypass admission entirely, so they still succeed while
	// the slot is parked.
	resp, body = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Settings: []map[string]float64{{"dataSize": 1}, {"dataSize": 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-warm batch under load: status %d body %s", resp.StatusCode, body)
	}

	close(release)
	if status := <-parked; status != http.StatusOK {
		t.Fatalf("parked request: status %d, want 200", status)
	}
	resp, body = postJSON(t, ts.URL+"/v1/run", mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch retry after shed: status %d body %s", resp.StatusCode, body)
	}
	if got := s.sched.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queued/running
// states.
func pollJob(t *testing.T, baseURL, id string) client.JobResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, body := getJSON(t, baseURL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d body %s", resp.StatusCode, body)
		}
		var job client.JobResponse
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == client.JobDone || job.State == client.JobFailed {
			return job
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return client.JobResponse{}
}

// TestTuneJobLifecycle submits an asynchronous qualification with an
// explicit (reachable) target, polls it to completion, and then verifies
// the advertised contract that the tuner's evaluations land in the same
// result cache /v1/run answers from: the baseline setting must come back
// coalesced.
func TestTuneJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Self-target: measure the proxy itself once via the run endpoint.
	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target run: status %d body %s", resp.StatusCode, body)
	}
	var rr client.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	m := decodeMetrics(t, rr.Metrics)
	target := map[string]float64{"IPC": m.IPC, "MIPS": m.MIPS}

	resp, body = postJSON(t, ts.URL+"/v1/tune", client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 1,
		Metrics:       []string{"IPC", "MIPS"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        target,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s, want 202", resp.StatusCode, body)
	}
	var accepted client.TuneResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.JobID == "" || accepted.State != client.JobQueued {
		t.Fatalf("tune response %+v", accepted)
	}

	job := pollJob(t, ts.URL, accepted.JobID)
	if job.State != client.JobDone {
		t.Fatalf("job state %s (error %q), want done", job.State, job.Error)
	}
	if job.Result == nil || !job.Result.Converged {
		t.Fatalf("self-targeted tune should converge; result %+v", job.Result)
	}
	if job.Result.AverageAccuracy < 0.95 {
		t.Fatalf("self-target accuracy %.3f should be near 1", job.Result.AverageAccuracy)
	}

	// The tuner's baseline evaluation used the default setting on the same
	// prototype configuration, so this run must be a cache hit.
	resp, body = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-tune run: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Coalesced {
		t.Fatal("run after tune should coalesce with the tuner's cached baseline evaluation")
	}
}

func TestTuneRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]client.TuneRequest{
		"unknown workload":      {Workload: "wordcount"},
		"unknown arch":          {Workload: "terasort", Arch: "skylake"},
		"unknown target metric": {Workload: "terasort", Target: map[string]float64{"ipc": 1}},
		"unknown tune metric":   {Workload: "terasort", Metrics: []string{"cycles"}, Target: map[string]float64{"IPC": 1}},
		"unknown parameter":     {Workload: "terasort", Parameters: []string{"dataSizes"}, Target: map[string]float64{"IPC": 1}},
		"bad threshold":         {Workload: "terasort", Threshold: 1.5, Target: map[string]float64{"IPC": 1}},
		"bad impact factor":     {Workload: "terasort", ImpactFactors: []float64{-2}, Target: map[string]float64{"IPC": 1}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/tune", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want a synchronous 400 (not an async failed job)", name, resp.StatusCode, body)
		}
	}
	resp, _ := getJSON(t, ts.URL+"/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestJobStorePrunesOldestFinished bounds the daemon's job history: beyond
// the cap the oldest finished jobs disappear, while unfinished jobs are
// never pruned.
func TestJobStorePrunesOldestFinished(t *testing.T) {
	js := newJobStore(2)
	now := time.Unix(0, 0)
	a := js.create(client.TuneRequest{Workload: "terasort", Arch: "westmere"}, now)
	b := js.create(client.TuneRequest{Workload: "kmeans", Arch: "westmere"}, now)
	c := js.create(client.TuneRequest{Workload: "pagerank", Arch: "westmere"}, now)
	js.finish(a.ID, nil, nil, now)
	if _, ok := js.get(a.ID); ok {
		t.Fatal("oldest finished job should have been pruned at cap 2")
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, ok := js.get(id); !ok {
			t.Fatalf("unfinished job %s must never be pruned", id)
		}
	}
	js.finish(b.ID, nil, nil, now)
	js.finish(c.ID, nil, nil, now)
	d := js.create(client.TuneRequest{Workload: "alexnet", Arch: "westmere"}, now)
	if _, ok := js.get(b.ID); ok {
		t.Fatal("job b should have been pruned when d arrived")
	}
	for _, id := range []string{c.ID, d.ID} {
		if _, ok := js.get(id); !ok {
			t.Fatalf("job %s should survive within the cap", id)
		}
	}
}

// TestTuneImplicitTargetMeasuresRealWorkload exercises the full
// qualification path: no explicit target, so the server measures the real
// workload on the paper deployment first.  Skipped in -short because the
// real workload runs at paper scale.
func TestTuneImplicitTargetMeasuresRealWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("real-workload measurement is not a -short workload")
	}
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/tune", client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 2,
		Parameters:    []string{"dataSize", "numTasks"},
		ImpactFactors: []float64{0.7, 1.4},
		Metrics:       []string{"IPC", "MIPS", "L1D_hit", "branch_miss", "mem_bw"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s", resp.StatusCode, body)
	}
	var accepted client.TuneResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	job := pollJob(t, ts.URL, accepted.JobID)
	if job.State != client.JobDone {
		t.Fatalf("job state %s (error %q), want done", job.State, job.Error)
	}
	if decodeMetrics(t, job.Result.Target).Runtime == 0 {
		t.Fatal("implicit target should carry the real workload's measured metrics")
	}
}

// TestTuneQueueShedsWith429 fills the job queue and expects the next tune
// to be shed.  The dispatcher is parked by pre-claiming the baseline
// setting's result-cache key with a blocked measurement: because the tuner
// shares the server's memo (the load-bearing key contract), its baseline
// evaluation coalesces with — and blocks on — that in-flight entry.
func TestTuneQueueShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{JobQueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blocked := make(chan struct{})
	go func() {
		pool, err := s.sched.pool("westmere")
		if err != nil {
			panic(err)
		}
		b, err := proxy.ForWorkload("terasort")
		if err != nil {
			panic(err)
		}
		key := tuner.MemoKey(pool.Proto(), b, core.DefaultSetting())
		_, _, _ = s.sched.memo.Measure(key, func() (perf.Metrics, error) {
			close(blocked)
			<-release
			return perf.Metrics{}, nil
		})
	}()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("cache pre-claim never started")
	}
	tuneReq := client.TuneRequest{Workload: "terasort", MaxIterations: 1, Parameters: []string{"dataSize"}, ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}, Target: map[string]float64{"IPC": 1}}

	// First job: dequeued by the dispatcher, which blocks on the pre-claimed
	// baseline key.
	resp, body := postJSON(t, ts.URL+"/v1/tune", tuneReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first tune: status %d body %s", resp.StatusCode, body)
	}
	var first client.TuneResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		job, ok := s.jobs.get(first.JobID)
		if ok && job.State == client.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never started the first job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second job fills the queue; third is shed.
	resp, _ = postJSON(t, ts.URL+"/v1/tune", tuneReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second tune: status %d, want 202", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/tune", tuneReq)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third tune: status %d body %s, want 429", resp.StatusCode, body)
	}
}

// TestMetricsEndpoint checks the exposition carries the request counters,
// gauges and cache counters the issue names.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d body %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`proxyd_http_requests_total{route="POST /v1/run"} 1`,
		"proxyd_run_executed_total 1",
		"proxyd_run_coalesced_total 0",
		"proxyd_run_shed_total 0",
		`proxyd_trace_groups_total{outcome="simulated"} 1`,
		`proxyd_trace_groups_total{outcome="resumed"} 0`,
		"proxyd_result_cache_entries 1",
		"proxyd_http_in_flight 1", // the /metrics request itself
		"proxyd_sched_in_flight 0",
		`proxyd_jobs{state="queued"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestTraceGroupsCount checks proxyd_trace_groups_total counts the trace
// groups a sweep simulated, where proxyd_run_executed_total counts its
// trace keys: a TeraSort batch at two chunk sizes that chunk no share and
// a second task count has three trace keys, and its evaluator simulates
// one group per task count, because TeraSort's first edge splits its
// input, and accounts the other chunk size from the first trace.
func TestTraceGroupsCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort", Settings: []map[string]float64{
		{"chunkSize": 1}, {"chunkSize": 1.5}, {"numTasks": 1.125},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	_, body = getJSON(t, ts.URL+"/metrics")
	for name, want := range map[string]float64{
		"proxyd_run_executed_total":                      3,
		`proxyd_trace_groups_total{outcome="simulated"}`: 2,
		`proxyd_trace_groups_total{outcome="resumed"}`:   0,
	} {
		if v, ok := client.ParseMetric(string(body), name); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

// measureDataSize stands in for the scheduler's evaluator: it still writes
// through the scheduler's memo (the real evalFn's contract), so cache growth
// and eviction behave as in production, but a lane's "measurement" is just
// its dataSize factor as the runtime.
func measureDataSize(sc *scheduler) func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
	return func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
		keys := make([]string, len(settings))
		for i, setting := range settings {
			keys[i] = tuner.MemoKey(pool.Proto(), b, setting)
		}
		return sc.memo.MeasureLanes(keys, func(cold []int) ([]perf.Metrics, error) {
			out := make([]perf.Metrics, len(cold))
			for j, i := range cold {
				out[j] = perf.Metrics{Runtime: settings[i].Get("dataSize")}
			}
			return out, nil
		})
	}
}

// runDataSize posts one terasort run at the given dataSize factor and
// returns whether it was answered from the cache.
func runDataSize(t *testing.T, baseURL string, dataSize float64) bool {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/run", client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": dataSize}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run dataSize=%g: status %d body %s", dataSize, resp.StatusCode, body)
	}
	var rr client.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	return rr.Coalesced
}

// TestResultCacheIsBounded drives distinct settings through a server with a
// tiny cache cap and checks the cache evicts entry by entry instead of
// growing without bound (clients choose the settings, so the daemon must
// not let them grow its heap forever): never more than the cap after a
// request, and one eviction per setting beyond it.
func TestResultCacheIsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCacheEntries: 2})
	s.sched.evalFn = measureDataSize(s.sched)
	for i := 1; i <= 10; i++ {
		runDataSize(t, ts.URL, float64(i))
		if size := s.sched.memo.Size(); size > 2 {
			t.Fatalf("after run %d the result cache holds %d entries despite cap 2", i, size)
		}
	}
	if got := s.sched.executed.Load(); got != 10 {
		t.Fatalf("%d distinct settings executed, want 10", got)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "proxyd_cache_evictions_total 8\n") {
		t.Fatalf("want 8 evictions; metrics:\n%s", m)
	}
}

// TestHotSettingStaysWarmPastCap pins what per-entry eviction buys over
// swapping the whole cache: a setting requested between every cold one
// keeps its reference bit set, so it stays warm while three times the cap
// in distinct cold settings pass through.
func TestHotSettingStaysWarmPastCap(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCacheEntries: 4})
	s.sched.evalFn = measureDataSize(s.sched)
	const hot = 0.5
	runDataSize(t, ts.URL, hot)
	for i := 1; i <= 12; i++ {
		runDataSize(t, ts.URL, float64(i))
		if !runDataSize(t, ts.URL, hot) {
			t.Errorf("hot setting went cold after cold setting %d", i)
		}
	}
	if got := s.sched.executed.Load(); got != 13 {
		t.Fatalf("%d executions, want 13: the hot setting once and 12 cold settings", got)
	}
}

// TestSweepPanicAnswers500 arms a panic inside the cold sweep of a batch and
// of a single run in a one-lane window, and checks the scheduler recovers
// it: the client gets the 500 internal envelope instead of a dropped
// connection, and the failed sweep adds to neither run counter, since none
// of its lanes was answered from the cache or from another request's work.
func TestSweepPanicAnswers500(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lanes int // the scheduler's lane cap; 0 keeps the default
		req   client.RunRequest
	}{
		{"batch", 0, client.RunRequest{Workload: "terasort", Settings: []map[string]float64{{"dataSize": 1.1}, {"dataSize": 1.2}}}},
		{"single in a one-lane window", 1, client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 1.1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Set("serve.evaluate", faultinject.Fault{Panic: true, PanicMsg: "boom", Times: 1})
			s, ts := newTestServer(t, Config{})
			if tc.lanes > 0 {
				s.sched.maxLanes = tc.lanes
			}
			resp, body := postJSON(t, ts.URL+"/v1/run", tc.req)
			var env client.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("status %d body %s is not an envelope: %v", resp.StatusCode, body, err)
			}
			if resp.StatusCode != http.StatusInternalServerError || env.Error.Code != client.CodeInternal || !strings.Contains(env.Error.Message, "panicked") {
				t.Fatalf("got status %d envelope %+v, want 500 internal naming the panic", resp.StatusCode, env.Error)
			}
			_, body = getJSON(t, ts.URL+"/metrics")
			for _, name := range []string{"proxyd_run_executed_total", "proxyd_run_coalesced_total"} {
				if v, ok := client.ParseMetric(string(body), name); !ok || v != 0 {
					t.Errorf("%s = %v (present %v) after a panicked sweep, want 0", name, v, ok)
				}
			}
		})
	}
}

// TestShedTuneLeavesNoJobRecord checks a 429'd tune does not permanently
// grow the job store (the client never sees the ID).
func TestShedTuneLeavesNoJobRecord(t *testing.T) {
	s, ts := newTestServer(t, Config{JobQueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blocked := make(chan struct{})
	go func() {
		pool, _ := s.sched.pool("westmere")
		b, _ := proxy.ForWorkload("terasort")
		_, _, _ = s.sched.memo.Measure(tuner.MemoKey(pool.Proto(), b, core.DefaultSetting()), func() (perf.Metrics, error) {
			close(blocked)
			<-release
			return perf.Metrics{}, nil
		})
	}()
	<-blocked
	tuneReq := client.TuneRequest{Workload: "terasort", MaxIterations: 1, Parameters: []string{"dataSize"}, ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}, Target: map[string]float64{"IPC": 1}}
	shed := 0
	for i := 0; i < 5; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/tune", tuneReq)
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("expected at least one shed tune with a 1-deep queue and a parked dispatcher")
	}
	counts := s.jobs.counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if want := 5 - shed; total != want {
		t.Fatalf("job store holds %d records (%v), want only the %d accepted jobs", total, counts, want)
	}
	s.jobs.mu.Lock()
	order, jobs := len(s.jobs.order), len(s.jobs.jobs)
	s.jobs.mu.Unlock()
	if order != jobs {
		t.Fatalf("job store orders %d IDs for %d records: shed tunes leak their IDs", order, jobs)
	}
}

// TestConfigDefaults pins the admission defaults the flags document.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxInFlight != parallel.Workers() {
		t.Errorf("MaxInFlight default %d, want parallel.Workers()=%d", cfg.MaxInFlight, parallel.Workers())
	}
	if cfg.QueueDepth != 16 || cfg.JobQueueDepth != 16 {
		t.Errorf("queue defaults %d/%d, want 16/16", cfg.QueueDepth, cfg.JobQueueDepth)
	}
	if cfg = (Config{QueueDepth: -1}).withDefaults(); cfg.QueueDepth != 0 {
		t.Errorf("negative QueueDepth should select 0, got %d", cfg.QueueDepth)
	}
}

// TestRealDeployment pins the implicit tuning target of each architecture
// to the paper's deployment of it: on Haswell, the three-node cluster runs
// the three-node step counts (AlexNet 3,000 steps, not the five-node
// 10,000), as the cross-architecture study measures it.
func TestRealDeployment(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.resolveTarget(client.TuneRequest{Workload: "alexnet", Arch: "haswell"})
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.MustNewCluster(sim.ThreeNodeHaswell64GB())
	if err := workloads.AlexNet(workloads.AlexNetConfig{Steps: 3000, BatchSize: 128}).Run(cluster); err != nil {
		t.Fatal(err)
	}
	if want := cluster.Report("").Metrics; got != want {
		t.Errorf("haswell AlexNet target runs %.1f virtual seconds, want the three-node deployment's %.1f", got.Runtime, want.Runtime)
	}
	if err := validateTune(client.TuneRequest{Workload: "alexnet", Arch: "skylake"}); err == nil {
		t.Error("unknown architecture should have no real deployment")
	}
}

// TestWarmRunAllocations bounds what a warm single POST /v1/run allocates
// through Server.Handler, request and recorder included: it makes 120
// allocations, and building the five proxy DAGs (proxy.ForWorkload) or the
// architecture map (arch.Profiles) per request would add 18.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"workload":"terasort","arch":"haswell"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 125 {
		t.Fatalf("a warm single run allocates %.0f times, want at most 125", allocs)
	}
}

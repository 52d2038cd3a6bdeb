package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/serve"
	"dataproxy/pkg/client"
)

// testFleet is a router fronting n real in-process proxyd replicas.
type testFleet struct {
	router   *Router
	routerTS *httptest.Server
	servers  []*serve.Server
	tss      []*httptest.Server
	backends []Backend
	api      *client.Client // talks to the router
}

// newTestFleet boots n replicas named s0..s{n-1} and a router over them with
// background probing effectively disabled, so tests drive health changes
// deterministically (via request outcomes and probeOnce).
func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	tf := &testFleet{}
	var backends []Backend
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		srv, err := serve.New(serve.Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(srv.Close)
		tf.servers = append(tf.servers, srv)
		tf.tss = append(tf.tss, ts)
		backends = append(backends, Backend{Name: name, URL: ts.URL})
	}
	rt, err := NewRouter(Config{Backends: backends, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tf.router = rt
	tf.backends = backends
	tf.routerTS = httptest.NewServer(rt.Handler())
	t.Cleanup(tf.routerTS.Close)
	tf.api = client.New(tf.routerTS.URL, client.WithRetries(0))
	return tf
}

// backendIndex maps a shard name back to its slice position.
func (tf *testFleet) backendIndex(t *testing.T, name string) int {
	t.Helper()
	for i := range tf.servers {
		if fmt.Sprintf("s%d", i) == name {
			return i
		}
	}
	t.Fatalf("unknown backend %q", name)
	return -1
}

// executedTotal sums proxyd_run_executed_total over the live replicas.
func (tf *testFleet) executedTotal(t *testing.T, ctx context.Context) float64 {
	t.Helper()
	var sum float64
	for _, ts := range tf.tss {
		text, err := client.New(ts.URL).MetricsText(ctx)
		if err != nil {
			continue // a killed replica contributes nothing
		}
		v, ok := client.ParseMetric(text, "proxyd_run_executed_total")
		if !ok {
			t.Fatal("replica metrics missing proxyd_run_executed_total")
		}
		sum += v
	}
	return sum
}

// TestSingleNodePassthrough is the satellite edge case: a one-backend fleet
// behaves exactly like talking to the replica directly — same responses,
// same envelopes, and the work lands (once) on that replica's cache.
func TestSingleNodePassthrough(t *testing.T) {
	tf := newTestFleet(t, 1)
	ctx := context.Background()

	run, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort"})
	if err != nil {
		t.Fatalf("run via router: %v", err)
	}
	if run.Workload != "terasort" || run.RuntimeSeconds <= 0 {
		t.Fatalf("unexpected run response %+v", run)
	}
	// The same request straight at the replica must be a cache hit: the
	// router really did forward to it, and nothing was simulated twice.
	direct, err := client.New(tf.tss[0].URL).Run(ctx, client.RunRequest{Workload: "terasort"})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Coalesced || direct.RuntimeSeconds != run.RuntimeSeconds {
		t.Fatalf("replica should answer the router-warmed key from cache, got %+v", direct)
	}

	// A batch through a single-node fleet forwards verbatim too.
	batch, err := tf.api.RunBatch(ctx, client.RunRequest{
		Workload: "terasort",
		Settings: []map[string]float64{nil, {"dataSize": 1.25}},
	})
	if err != nil {
		t.Fatalf("batch via router: %v", err)
	}
	if len(batch.Results) != 2 || !batch.Results[0].Coalesced {
		t.Fatalf("batch should reuse the warmed default setting, got %+v", batch.Results)
	}

	// Router-originated envelopes: unknown routes and bad bodies.
	resp, err := http.Get(tf.routerTS.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmatched route status %d, want 404", resp.StatusCode)
	}
	_, err = tf.api.Run(ctx, client.RunRequest{Workload: "wordcount"})
	if ae, ok := client.AsAPIError(err); !ok || ae.Code != client.CodeBadRequest {
		t.Fatalf("replica rejection should relay as bad_request, got %v", err)
	}
}

// TestBatchSplitsAcrossShardsInOrder is the satellite ordering property: a
// batch spanning several owners comes back in request order, each setting
// simulated exactly once fleet-wide.
func TestBatchSplitsAcrossShardsInOrder(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	// Ownership follows the trace shape, so the corpus varies one: each
	// dataSize factor shrinks TeraSort's 2 GiB input below its 1.5 MiB
	// sample to its own size, which gives every setting its own shape and
	// its own trace key in proxyd_run_executed_total (the counter counts
	// trace keys evaluated cold, not requests).
	settings := []map[string]float64{
		nil,
		{"dataSize": 1e-4},
		{"dataSize": 2e-4},
		{"dataSize": 3e-4},
		{"dataSize": 4e-4},
	}
	owners := make(map[string]bool)
	for _, s := range settings {
		owner, ok := tf.router.ring.Owner(RunKey("terasort", "", core.Setting(s)), nil)
		if !ok {
			t.Fatal("no owner")
		}
		owners[owner] = true
	}
	if len(owners) < 2 {
		t.Fatalf("test corpus maps to %d owner(s); grow it to exercise the split", len(owners))
	}

	batch, err := tf.api.RunBatch(ctx, client.RunRequest{Workload: "terasort", Settings: settings})
	if err != nil {
		t.Fatalf("split batch: %v", err)
	}
	if len(batch.Results) != len(settings) {
		t.Fatalf("got %d results, want %d", len(batch.Results), len(settings))
	}
	if batch.Workload != "terasort" || batch.Arch != "westmere" || batch.Benchmark == "" {
		t.Fatalf("batch header %+v", batch)
	}
	if got := tf.executedTotal(t, ctx); got != float64(len(settings)) {
		t.Fatalf("fleet executed %g simulations for %d distinct settings", got, len(settings))
	}

	// Request order: each position must hold its own setting's result.  A
	// single run of settings[i] through the router is answered by the owning
	// shard's cache with the identical runtime.
	for i, s := range settings {
		single, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: s})
		if err != nil {
			t.Fatalf("verifying settings[%d]: %v", i, err)
		}
		if !single.Coalesced {
			t.Errorf("settings[%d] was re-simulated; batch and single runs disagree on ownership", i)
		}
		if single.RuntimeSeconds != batch.Results[i].RuntimeSeconds {
			t.Errorf("settings[%d]: batch runtime %g, single runtime %g — order not preserved",
				i, batch.Results[i].RuntimeSeconds, single.RuntimeSeconds)
		}
	}

	// The whole batch again: nothing new executes anywhere.
	again, err := tf.api.RunBatch(ctx, client.RunRequest{Workload: "terasort", Settings: settings})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again.Results {
		if !res.Coalesced {
			t.Errorf("repeat batch result %d was re-simulated", i)
		}
	}
	if got := tf.executedTotal(t, ctx); got != float64(len(settings)) {
		t.Fatalf("repeat batch grew executed total to %g", got)
	}
}

// TestBatchGroupSimulatesOnce pins trace-group ownership end to end: every
// lane of a trace group reaches one replica, so a batch of many weight lanes
// over two groups costs the fleet exactly two simulations, and each lane is
// then a cache hit on its own.
func TestBatchGroupSimulatesOnce(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	var settings []map[string]float64
	for _, chunk := range []float64{1, 1.5} {
		for l := 0; l < 8; l++ {
			settings = append(settings, map[string]float64{"chunkSize": chunk, "weight": 0.5 + 0.25*float64(l)})
		}
	}
	before := tf.executedTotal(t, ctx)
	batch, err := tf.api.RunBatch(ctx, client.RunRequest{Workload: "terasort", Settings: settings})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got := tf.executedTotal(t, ctx) - before; got != 2 {
		t.Fatalf("fleet executed %g simulations for a batch of 2 trace groups", got)
	}
	for i, s := range settings {
		single, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: s})
		if err != nil {
			t.Fatalf("reading back settings[%d]: %v", i, err)
		}
		if !single.Coalesced || single.RuntimeSeconds != batch.Results[i].RuntimeSeconds {
			t.Errorf("settings[%d] read back coalesced=%v runtime %g, want a cache hit with the batch's %g",
				i, single.Coalesced, single.RuntimeSeconds, batch.Results[i].RuntimeSeconds)
		}
	}
}

// TestFailoverReroutesWithout5xx kills a replica and checks its keyspace
// fails over to the survivors with no client-visible 5xx.
func TestFailoverReroutesWithout5xx(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	setting := map[string]float64{"dataSize": 1.3}
	owner, _ := tf.router.ring.Owner(RunKey("terasort", "", core.Setting(setting)), nil)
	victim := tf.backendIndex(t, owner)

	first, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: setting})
	if err != nil {
		t.Fatal(err)
	}

	tf.tss[victim].Close() // SIGKILL equivalent: connections refused from now on

	second, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: setting})
	if err != nil {
		t.Fatalf("run after killing owner should fail over, got %v", err)
	}
	if second.RuntimeSeconds != first.RuntimeSeconds {
		t.Errorf("failover runtime %g, want %g (simulation is deterministic)", second.RuntimeSeconds, first.RuntimeSeconds)
	}
	if tf.router.failovers.Load() == 0 {
		t.Error("failover counter did not move")
	}
	newOwner, ok := tf.router.ring.Owner(RunKey("terasort", "", core.Setting(setting)), tf.router.alive)
	if !ok || newOwner == owner {
		t.Fatalf("keyspace did not move off the dead shard (owner %q ok=%v)", newOwner, ok)
	}

	// A batch over many settings also completes 5xx-free with one shard down.
	batch, err := tf.api.RunBatch(ctx, client.RunRequest{
		Workload: "terasort",
		Settings: []map[string]float64{nil, setting, {"dataSize": 1.7}},
	})
	if err != nil {
		t.Fatalf("batch with a dead shard: %v", err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(batch.Results))
	}

	// The router stays ready while any backend lives.
	if err := tf.api.Ready(ctx); err != nil {
		t.Fatalf("router readiness with survivors: %v", err)
	}

	// Kill the rest: now (and only now) requests surface 503 unavailable.
	for i, ts := range tf.tss {
		if i != victim {
			ts.Close()
		}
	}
	_, err = tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: setting})
	ae, ok := client.AsAPIError(err)
	if !ok || ae.Code != client.CodeUnavailable || !client.IsRetryable(err) {
		t.Fatalf("fully dead fleet should answer 503 unavailable, got %v", err)
	}
}

// TestTuneJobsRouteByPrefix pins the job-ID contract: tune jobs land on the
// TuneKey owner, the returned ID carries the shard prefix, and job polling
// routes back through it — including the 404 and 503 edges.
func TestTuneJobsRouteByPrefix(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	run, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort"})
	if err != nil {
		t.Fatal(err)
	}
	mv, err := run.MetricValues()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tf.api.Tune(ctx, client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 1,
		Metrics:       []string{"IPC", "MIPS"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        map[string]float64{"IPC": mv["IPC"], "MIPS": mv["MIPS"]},
	})
	if err != nil {
		t.Fatalf("tune via router: %v", err)
	}
	owner, _ := tf.router.ring.Owner(TuneKey("terasort", ""), nil)
	if !strings.HasPrefix(tr.JobID, owner+".") {
		t.Fatalf("job ID %q should carry owning shard prefix %q", tr.JobID, owner)
	}
	job, err := tf.api.PollJob(ctx, tr.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("polling %s: %v", tr.JobID, err)
	}
	if job.ID != tr.JobID {
		t.Errorf("polled job echoes ID %q, want the requested %q", job.ID, tr.JobID)
	}
	if job.State != client.JobDone || job.Result == nil || !job.Result.Converged {
		t.Fatalf("self-targeted tune should converge, job %+v", job)
	}

	// Unknown prefixes and unprefixed IDs are 404s the router answers itself.
	for _, id := range []string{"nosuch.job-1", "job-1"} {
		if _, err := tf.api.Job(ctx, id); !client.IsNotFound(err) {
			t.Errorf("job %q should be not_found, got %v", id, err)
		}
	}
	// Known prefix on an unreachable shard is a 503: the job may still exist.
	victim := tf.backendIndex(t, owner)
	tf.tss[victim].Close()
	_, err = tf.api.Job(ctx, tr.JobID)
	if ae, ok := client.AsAPIError(err); !ok || ae.Code != client.CodeUnavailable {
		t.Errorf("job on dead shard should be unavailable, got %v", err)
	}
}

// TestRouterClusterAndMetrics checks the router's cluster view and metric
// exposition, including a drained replica leaving the ring after a probe.
func TestRouterClusterAndMetrics(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx := context.Background()

	cl, err := tf.api.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Self != "proxyrouter" || cl.Role != client.RoleRouter || len(cl.Peers) != 3 {
		t.Fatalf("cluster view %+v", cl)
	}
	var sum float64
	for _, p := range cl.Peers {
		if !p.Healthy {
			t.Errorf("peer %s should start healthy", p.Name)
		}
		sum += p.KeyspaceShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("keyspace shares sum to %g, want 1", sum)
	}

	// Drain s1: the next probe round must take it out of the rotation (a
	// draining replica answers /readyz with 503), moving its keyspace.
	if err := tf.servers[1].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tf.router.probeOnce()
	cl, err = tf.api.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cl.Peers {
		if p.Name == "s1" && (p.Healthy || p.KeyspaceShare != 0) {
			t.Fatalf("drained shard should be unhealthy with no keyspace, got %+v", p)
		}
	}

	text, err := tf.api.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.ParseMetric(text, `proxyrouter_backend_healthy{backend="s1"}`); !ok || v != 0 {
		t.Errorf("backend_healthy{s1} = %v %v, want 0", v, ok)
	}
	if v, ok := client.ParseMetric(text, `proxyrouter_backend_healthy{backend="s0"}`); !ok || v != 1 {
		t.Errorf("backend_healthy{s0} = %v %v, want 1", v, ok)
	}
	if _, ok := client.ParseMetric(text, "proxyrouter_failovers_total"); !ok {
		t.Error("metrics missing proxyrouter_failovers_total")
	}
	if v, ok := client.ParseMetric(text, `proxyrouter_http_requests_total{route="GET /v1/cluster"}`); !ok || v < 2 {
		t.Errorf("request counter for /v1/cluster = %v %v", v, ok)
	}
	if v, ok := client.ParseMetric(text, `proxyrouter_http_requests_total{route="POST /v1/tune"}`); !ok || v != 0 {
		t.Errorf("unused route should be listed at 0, got %v %v", v, ok)
	}
	if v, ok := client.ParseMetric(text, "proxyrouter_http_in_flight"); !ok || v != 1 {
		t.Errorf("proxyrouter_http_in_flight = %v %v, want 1 (the scrape itself)", v, ok)
	}

	// Listings relay from a healthy replica even with one drained.
	wl, err := tf.api.Workloads(ctx)
	if err != nil || len(wl) == 0 {
		t.Fatalf("workloads via router: %v (%d entries)", err, len(wl))
	}
}

// TestRouterRelaysShedEnvelope checks a replica's own 429 passes through the
// router untouched: same status, code and retry hint (the router only
// originates 503s, never rewrites backend decisions).
func TestRouterRelaysShedEnvelope(t *testing.T) {
	tf := newTestFleet(t, 2)
	ctx := context.Background()

	setting := map[string]float64{"dataSize": 1.45}
	owner, _ := tf.router.ring.Owner(RunKey("terasort", "", core.Setting(setting)), nil)
	victim := tf.backendIndex(t, owner)
	// Drain the owner but do NOT let the router notice (no probe): the next
	// forward reaches a live, draining replica that sheds with 429.
	if err := tf.servers[victim].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := tf.api.Run(ctx, client.RunRequest{Workload: "terasort", Setting: setting})
	ae, ok := client.AsAPIError(err)
	if !ok || ae.Status != http.StatusTooManyRequests || !client.IsShed(err) {
		t.Fatalf("draining owner should relay its 429, got %v", err)
	}
	if ae.RetryAfter <= 0 {
		t.Error("relayed shed lost its retry hint")
	}
}

// TestRouterRelaysSweepPanic arms a panic inside the owner's cold sweep of
// a batch: the replica recovers it and answers 500 internal, which the
// router relays as it relays any backend answer — no failover, and both
// backends stay healthy.  A dropped connection would instead read as a dead
// replica, and the retry on the other one would panic too.
func TestRouterRelaysSweepPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	tf := newTestFleet(t, 2)
	faultinject.Set("serve.evaluate", faultinject.Fault{Panic: true, PanicMsg: "boom", Times: 2})
	_, err := tf.api.RunBatch(context.Background(), client.RunRequest{
		Workload: "terasort",
		Settings: []map[string]float64{{"dataSize": 1.1}, {"dataSize": 1.2}},
	})
	ae, ok := client.AsAPIError(err)
	if !ok || ae.Status != http.StatusInternalServerError || ae.Code != client.CodeInternal {
		t.Fatalf("panicking sweep should relay the replica's 500 internal, got %v", err)
	}
	if got := tf.router.failovers.Load(); got != 0 {
		t.Errorf("proxyrouter_failovers_total %d, want 0", got)
	}
	for _, b := range tf.backends {
		if !tf.router.alive(b.Name) {
			t.Errorf("backend %s marked dead after answering 500", b.Name)
		}
	}
}

// TestRouterRejectsMalformedRequests pins the router's own bad_request
// surface: bodies it cannot parse (or that violate the setting/settings
// exclusivity) are rejected at the router with the envelope, before any
// backend is bothered.
func TestRouterRejectsMalformedRequests(t *testing.T) {
	tf := newTestFleet(t, 2)
	ctx := context.Background()

	if err := tf.api.Healthy(ctx); err != nil {
		t.Fatalf("router /healthz: %v", err)
	}
	if got := tf.router.ring.Nodes(); len(got) != 2 || got[0] != "s0" || got[1] != "s1" {
		t.Fatalf("ring.Nodes() = %v", got)
	}

	post := func(body string) *client.APIError {
		t.Helper()
		resp, err := http.Post(tf.routerTS.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env client.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body is not an envelope: %v", err)
		}
		return &client.APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}

	for _, body := range []string{
		`{"workload": "terasort", "setting"`,                                     // malformed JSON
		`{"workload": "terasort", "setting": {"dataSize": 1}, "settings": [{}]}`, // both forms
		`{"workload": "terasort", "settings": []}`,                               // empty batch
	} {
		ae := post(body)
		if ae.Status != http.StatusBadRequest || ae.Code != client.CodeBadRequest {
			t.Errorf("body %q: got %d/%s, want 400/bad_request", body, ae.Status, ae.Code)
		}
	}
}

// TestBatchErrorIsAllOrNothing checks the multi-owner batch error contract:
// when one shard rejects its sub-batch (here: a draining replica shedding
// with 429), the client gets that shard's envelope relayed — never partial
// results.
func TestBatchErrorIsAllOrNothing(t *testing.T) {
	tf := newTestFleet(t, 2)
	ctx := context.Background()

	// Collect settings until both backends own at least one.  Ownership
	// follows the trace shape, so the corpus varies one: dataSize factors
	// that shrink TeraSort's 2 GiB input below its 1.5 MiB sample, each to
	// its own size.  The chunk size, task count and weight lanes of a shape
	// never reach a second owner.
	var settings []map[string]float64
	owners := map[string]bool{}
	for i := 0; len(owners) < 2; i++ {
		if i == 64 {
			t.Fatalf("64 shapes all map to %v; the ring cannot be spreading keys", owners)
		}
		s := map[string]float64{"dataSize": 5e-6 * float64(i+1)}
		owner, _ := tf.router.ring.Owner(RunKey("terasort", "", core.Setting(s)), nil)
		owners[owner] = true
		settings = append(settings, s)
	}

	// Drain one owner without letting the router's health view notice: its
	// sub-batch sheds with 429 while the other shard answers fine.
	if err := tf.servers[1].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := tf.api.RunBatch(ctx, client.RunRequest{Workload: "terasort", Settings: settings})
	ae, ok := client.AsAPIError(err)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("batch with a draining owner should relay its 429, got %v", err)
	}
	if !client.IsRetryable(err) {
		t.Errorf("relayed batch error lost its retryable code: %+v", ae)
	}
}

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRoutedJobBodyIsVerbatim: a done job read through the router is the
// owning replica's body byte for byte, except for the shard-prefixed ID, so
// the result vectors keep the replica's canonical metric order.
func TestRoutedJobBodyIsVerbatim(t *testing.T) {
	tf := newTestFleet(t, 2)
	ctx := context.Background()
	tr, err := tf.api.Tune(ctx, client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 1,
		Metrics:       []string{"IPC"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        map[string]float64{"IPC": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.api.PollJob(ctx, tr.JobID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	shard, id, _ := strings.Cut(tr.JobID, ".")
	status, direct := getBody(t, tf.tss[tf.backendIndex(t, shard)].URL+"/v1/jobs/"+id)
	if status != http.StatusOK || !strings.Contains(direct, `"proxy_metrics"`) {
		t.Fatalf("owner's job body: %d %s", status, direct)
	}
	status, routed := getBody(t, tf.routerTS.URL+"/v1/jobs/"+tr.JobID)
	want := strings.Replace(direct, `"id": "`+id+`"`, `"id": "`+tr.JobID+`"`, 1)
	if status != http.StatusOK || routed != want {
		t.Fatalf("routed job body (%d):\n%s\nwant the owner's body:\n%s", status, routed, want)
	}
}

// syncBuffer is a mutex-guarded log sink: handlers write it while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterRequestLogNamesOwner: with request logging on, the router's line
// for a forwarded request carries the shared fields and the owning shard.
func TestRouterRequestLogNamesOwner(t *testing.T) {
	tf := newTestFleet(t, 2)
	var logs syncBuffer
	rt, err := NewRouter(Config{Backends: tf.backends, ProbeInterval: time.Hour,
		RequestLog: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	setting := map[string]float64{"dataSize": 1.1}
	owner, _ := rt.ring.Owner(RunKey("terasort", "", core.Setting(setting)), nil)
	if _, err := client.New(ts.URL).Run(context.Background(), client.RunRequest{Workload: "terasort", Setting: setting}); err != nil {
		t.Fatal(err)
	}
	text := logs.String()
	for _, want := range []string{"method=POST", `route="POST /v1/run"`, "status=200", "duration_ms=", "shard=" + owner} {
		if !strings.Contains(text, want) {
			t.Errorf("router request log missing %q in:\n%s", want, text)
		}
	}
}

// bodyOnly is a response body with neither WriteTo nor any other fast
// path, like a backend response's body.
type bodyOnly struct{ r io.Reader }

func (b bodyOnly) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b bodyOnly) Close() error               { return nil }

// TestRelayAllocatesNoCopyBuffer: relaying a response allocates no copy
// buffer of its own.  Neither the body nor the recorder (like the route
// middleware's writer) has a fast path, so an io.Copy there allocates 32 KB
// per response; without it a relay allocates about 2 KB.  The bound leaves
// room for the race detector, whose sync.Pool drops a quarter of the
// buffers put back.
func TestRelayAllocatesNoCopyBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 2048)
	relayOnce := func() {
		rec := httptest.NewRecorder()
		resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: bodyOnly{bytes.NewReader(body)}}
		relay(rec, resp)
		if rec.Body.Len() != len(body) {
			t.Fatalf("relayed %d body bytes, want %d", rec.Body.Len(), len(body))
		}
	}
	relayOnce()
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		relayOnce()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024; kb > 20 {
		t.Fatalf("relaying a 2 KB response allocates %.1f KB, want at most 20 KB", kb)
	}
}

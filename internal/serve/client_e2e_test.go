package serve

// The end-to-end happy paths of the /v1 surface are exercised here through
// pkg/client — the typed client is the only supported programmatic caller,
// so the serving layer's e2e coverage doubles as the client's integration
// coverage.  Raw-HTTP tests elsewhere in the package keep pinning the exact
// protocol shapes (status codes, byte-level bodies) the client abstracts.

import (
	"bytes"
	"context"
	"maps"
	"testing"
	"time"

	"dataproxy/internal/arch"
	"dataproxy/internal/proxy"
	"dataproxy/pkg/client"
)

// TestClientEndToEnd drives the full serving surface through pkg/client:
// listings, a coalescing single run, an order-preserving batch, and the
// submit-poll-inspect tune lifecycle.
func TestClientEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	ctx := context.Background()

	wl, err := c.Workloads(ctx)
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	if len(wl) != len(proxy.Workloads()) {
		t.Fatalf("client saw %d workloads, want %d", len(wl), len(proxy.Workloads()))
	}
	ar, err := c.Archs(ctx)
	if err != nil {
		t.Fatalf("Archs: %v", err)
	}
	if len(ar) != len(arch.Profiles()) {
		t.Fatalf("client saw %d archs, want %d", len(ar), len(arch.Profiles()))
	}

	// A repeated identical run must coalesce and return bit-identical raw
	// metric bytes (the client keeps them raw precisely so relaying cannot
	// perturb the canonical encoding).
	req := client.RunRequest{Workload: "terasort", Setting: map[string]float64{"dataSize": 1.5}}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first.Benchmark == "" || first.RuntimeSeconds <= 0 {
		t.Fatalf("implausible run response: %+v", first)
	}
	second, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("repeated Run: %v", err)
	}
	if !second.Coalesced {
		t.Error("repeated identical run should be served from cache")
	}
	if !bytes.Equal(first.Metrics, second.Metrics) {
		t.Errorf("raw metric bytes diverge:\n%s\nvs\n%s", first.Metrics, second.Metrics)
	}
	mv, err := first.MetricValues()
	if err != nil || mv["IPC"] <= 0 {
		t.Fatalf("MetricValues = %v, %v", mv, err)
	}

	// Batch: results must come back in request order, with the already-warm
	// first setting coalesced and each result's runtime matching its vector.
	batch, err := c.RunBatch(ctx, client.RunRequest{
		Workload: "terasort",
		Settings: []map[string]float64{{"dataSize": 1.5}, {"dataSize": 0.75}},
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}
	if !batch.Results[0].Coalesced {
		t.Error("warm batch member should coalesce with the earlier run")
	}
	// Raw bytes differ in indentation depth between the two response shapes,
	// so order preservation is pinned on the decoded vectors.
	bmv, err := batch.Results[0].MetricValues()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(bmv, mv) {
		t.Error("batch result 0 is not the earlier setting's result — order not preserved")
	}
	if batch.Results[1].RuntimeSeconds == batch.Results[0].RuntimeSeconds {
		t.Error("distinct settings should not report identical runtimes")
	}

	// Tune lifecycle through the client: self-target for a fast convergence.
	tr, err := c.Tune(ctx, client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 1,
		Metrics:       []string{"IPC", "MIPS"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        map[string]float64{"IPC": mv["IPC"], "MIPS": mv["MIPS"]},
	})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if tr.JobID == "" || tr.State != client.JobQueued {
		t.Fatalf("unexpected tune acceptance: %+v", tr)
	}
	job, err := c.PollJob(ctx, tr.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("PollJob: %v", err)
	}
	if job.State != client.JobDone || job.Result == nil || !job.Result.Converged {
		t.Fatalf("self-targeted tune should converge; job %+v", job)
	}
}

// TestClientDecodesEnvelopes checks the client surfaces server rejections as
// classified *APIError values rather than opaque strings.
func TestClientDecodesEnvelopes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()

	_, err := c.Run(ctx, client.RunRequest{Workload: "wordcount"})
	ae, ok := client.AsAPIError(err)
	if !ok || ae.Code != client.CodeBadRequest {
		t.Fatalf("unknown workload should decode as bad_request, got %v", err)
	}
	if client.IsRetryable(err) {
		t.Error("bad_request must not be retryable")
	}

	if _, err := c.Job(ctx, "job-404"); !client.IsNotFound(err) {
		t.Errorf("missing job should classify IsNotFound, got %v", err)
	}

	s.sched.draining.Store(true)
	defer func() {
		s.sched.draining.Store(false)
	}()
	_, err = c.Run(ctx, client.RunRequest{Workload: "terasort"})
	if !client.IsShed(err) || !client.IsRetryable(err) {
		t.Errorf("drained run should classify shed+retryable, got %v", err)
	}
	ae, _ = client.AsAPIError(err)
	if ae == nil || ae.RetryAfter <= 0 {
		t.Errorf("shed response should advertise a retry delay, got %+v", ae)
	}
	_, err = c.Tune(ctx, client.TuneRequest{Workload: "terasort"})
	if ae, ok := client.AsAPIError(err); !ok || ae.Code != client.CodeDraining || !client.IsRetryable(err) {
		t.Errorf("drained tune should carry code draining and stay retryable, got %v", err)
	}
}

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/snapshot"
	"dataproxy/internal/tuner"
	"dataproxy/pkg/client"
)

// getMetrics scrapes /metrics as one string.
func getMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, body := getJSON(t, baseURL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return string(body)
}

// selfTarget measures the default terasort proxy once through /v1/run and
// returns a tune request targeting the measured vector — a reachable target
// that makes tune jobs cheap and deterministic.
func selfTarget(t *testing.T, baseURL string) client.TuneRequest {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/run", client.RunRequest{Workload: "terasort"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("target run: status %d body %s", resp.StatusCode, body)
	}
	var rr client.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	m := decodeMetrics(t, rr.Metrics)
	return client.TuneRequest{
		Workload:      "terasort",
		MaxIterations: 1,
		Metrics:       []string{"IPC", "MIPS"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        map[string]float64{"IPC": m.IPC, "MIPS": m.MIPS},
	}
}

// TestWarmRestartTuneIsBitIdentical is the kill-and-restart property of the
// issue: a tune completed before a snapshot, re-submitted to a fresh server
// restored from that snapshot, converges to the byte-identical setting and
// metric vector with strictly fewer fresh evaluations (here: zero — every
// evaluation is a memo hit).
func TestWarmRestartTuneIsBitIdentical(t *testing.T) {
	dir := t.TempDir()

	sA, tsA := newTestServer(t, Config{StateDir: dir})
	req := selfTarget(t, tsA.URL)
	resp, body := postJSON(t, tsA.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s", resp.StatusCode, body)
	}
	var accepted client.TuneResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	jobA := pollJob(t, tsA.URL, accepted.JobID)
	if jobA.State != client.JobDone {
		t.Fatalf("job A state %s (error %q)", jobA.State, jobA.Error)
	}
	if jobA.Result.Evaluations == 0 {
		t.Fatal("cold tune performed no fresh evaluations; the restart property would be vacuous")
	}
	if err := sA.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newTestServer(t, Config{StateDir: dir})
	metrics := getMetrics(t, tsB.URL)
	for _, want := range []string{
		`proxyd_restore_outcome{outcome="ok"} 1`,
		"proxyd_ready 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics after restore missing %q", want)
		}
	}
	if sB.state.restoredEntries.Load() == 0 {
		t.Fatal("restore installed no cache entries")
	}

	resp, body = postJSON(t, tsB.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune B: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	jobB := pollJob(t, tsB.URL, accepted.JobID)
	if jobB.State != client.JobDone {
		t.Fatalf("job B state %s (error %q)", jobB.State, jobB.Error)
	}

	if jobB.Result.Evaluations != 0 {
		t.Errorf("warm tune performed %d fresh evaluations, want 0 (all memo hits)", jobB.Result.Evaluations)
	}
	if jobB.Result.MemoHits == 0 {
		t.Error("warm tune reported no memo hits")
	}
	for name, pair := range map[string][2]any{
		"setting":       {jobA.Result.Setting, jobB.Result.Setting},
		"proxy metrics": {jobA.Result.ProxyMetrics, jobB.Result.ProxyMetrics},
		"per-metric":    {jobA.Result.PerMetric, jobB.Result.PerMetric},
	} {
		a, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s diverged across restart:\ncold %s\nwarm %s", name, a, b)
		}
	}
}

// TestDamagedSnapshotsRestoreCold drives every corruption class through a
// real server start: bit flips, truncation and future-version snapshots each
// degrade to a cold start with the matching /metrics outcome — never an
// error from New, never a poisoned cache.
func TestDamagedSnapshotsRestoreCold(t *testing.T) {
	goodMetrics, err := (perf.Metrics{Runtime: 1, IPC: 1.1, MIPS: 2000, L1DHit: 0.9}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	writeSnap := func(t *testing.T, dir string, mutate func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, snapshotFile)
		if _, err := snapshot.WriteFile(path, &snapshot.State{
			MemoEntries: []snapshot.MemoEntry{{Key: "k1", Metrics: goodMetrics}},
		}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := map[string]struct {
		mutate  func([]byte) []byte
		outcome string
	}{
		"bit flip": {
			mutate:  func(raw []byte) []byte { raw[len(raw)-3] ^= 0x40; return raw },
			outcome: `proxyd_restore_outcome{outcome="corrupt"} 1`,
		},
		"truncation": {
			mutate:  func(raw []byte) []byte { return raw[:len(raw)-5] },
			outcome: `proxyd_restore_outcome{outcome="corrupt"} 1`,
		},
		"future version": {
			mutate:  func(raw []byte) []byte { raw[8] = 0x7F; return raw },
			outcome: `proxyd_restore_outcome{outcome="version_mismatch"} 1`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeSnap(t, dir, tc.mutate)
			s, ts := newTestServer(t, Config{StateDir: dir})
			metrics := getMetrics(t, ts.URL)
			if !strings.Contains(metrics, tc.outcome) {
				t.Errorf("metrics missing %q; got:\n%s", tc.outcome, metrics)
			}
			if !strings.Contains(metrics, "proxyd_restored_entries_total 0") {
				t.Error("damaged snapshot contributed cache entries")
			}
			if s.sched.memo.Size() != 0 {
				t.Error("cache not cold after damaged snapshot")
			}
			resp, _ := getJSON(t, ts.URL+"/readyz")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/readyz status %d after cold fallback, want 200", resp.StatusCode)
			}
		})
	}
}

// TestRestoreSkipsInvariantViolations: a snapshot whose records decode but
// violate measurement invariants (contract #4 determinism feeding contract
// #8) is not trusted — the bad entries are skipped and counted while the
// good ones restore.
func TestRestoreSkipsInvariantViolations(t *testing.T) {
	dir := t.TempDir()
	good, err := (perf.Metrics{Runtime: 1, IPC: 1.1}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := (perf.Metrics{Runtime: 1, L2Hit: 42}).MarshalJSON() // hit ratio > 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.WriteFile(filepath.Join(dir, snapshotFile), &snapshot.State{
		MemoEntries: []snapshot.MemoEntry{
			{Key: "bad", Metrics: bad},
			{Key: "good", Metrics: good},
			{Key: "undecodable", Metrics: []byte("{")},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{StateDir: dir})
	metrics := getMetrics(t, ts.URL)
	for _, want := range []string{
		`proxyd_restore_outcome{outcome="ok"} 1`,
		"proxyd_restored_entries_total 1",
		"proxyd_restore_invalid_entries_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q; got:\n%s", want, metrics)
		}
	}
	if _, ok, _ := s.sched.memo.PeekBytes([]byte("bad")); ok {
		t.Error("invariant-violating entry answered a PeekBytes")
	}
	if _, ok, _ := s.sched.memo.PeekBytes([]byte("good")); !ok {
		t.Error("valid entry was not restored")
	}
}

// TestCrashMidTuneIsReenqueuedAndCompletes simulates a crash while a tune
// job is running: the snapshot taken mid-flight persists the job as running,
// and a second server restored from the same directory demotes it to queued,
// re-enqueues it under its ORIGINAL ID and drives it to completion.
func TestCrashMidTuneIsReenqueuedAndCompletes(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Set("serve.tune", faultinject.Fault{Hook: func() error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}})
	defer close(release)

	sA, tsA := newTestServer(t, Config{StateDir: dir})
	req := client.TuneRequest{Workload: "terasort", MaxIterations: 1, Parameters: []string{"dataSize"},
		ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}, Target: map[string]float64{"IPC": 1}}
	resp, body := postJSON(t, tsA.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s", resp.StatusCode, body)
	}
	var accepted client.TuneResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	<-started // the dispatcher is now mid-job, blocked inside the evaluation
	if err := sA.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	// "Crash": server A is never drained; the fault is disarmed and a new
	// server boots from the snapshot exactly as a post-kill restart would.
	faultinject.Clear("serve.tune")
	_, tsB := newTestServer(t, Config{StateDir: dir})
	metrics := getMetrics(t, tsB.URL)
	if !strings.Contains(metrics, "proxyd_jobs_reenqueued_total 1") {
		t.Errorf("metrics missing re-enqueued job count; got:\n%s", metrics)
	}
	job := pollJob(t, tsB.URL, accepted.JobID)
	if job.State != client.JobDone {
		t.Fatalf("re-enqueued job %s state %s (error %q), want done", accepted.JobID, job.State, job.Error)
	}
}

// TestDispatcherSurvivesInjectedPanic: a panicking evaluation fails its job
// but never kills the dispatcher — the next tune on the same server runs to
// completion.
func TestDispatcherSurvivesInjectedPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure("serve.tune=panic:chaos monkey*1"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	req := client.TuneRequest{Workload: "terasort", MaxIterations: 1, Parameters: []string{"dataSize"},
		ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}, Target: map[string]float64{"IPC": 1}}

	resp, body := postJSON(t, ts.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s", resp.StatusCode, body)
	}
	var accepted client.TuneResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	job := pollJob(t, ts.URL, accepted.JobID)
	if job.State != client.JobFailed || !strings.Contains(job.Error, "chaos monkey") {
		t.Fatalf("job under panic: state %s error %q, want failed with the injected message", job.State, job.Error)
	}

	resp, body = postJSON(t, ts.URL+"/v1/tune", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune after panic: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if job = pollJob(t, ts.URL, accepted.JobID); job.State != client.JobDone {
		t.Fatalf("job after panic: state %s (error %q), want done — dispatcher must survive", job.State, job.Error)
	}
}

// TestDrainShedsAndFlipsReadyz: a graceful drain flips /readyz to 503
// (while /healthz stays 200), sheds new run and tune work with 429, and
// writes a final snapshot.
func TestDrainShedsAndFlipsReadyz(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StateDir: dir})

	resp, _ := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: status %d", resp.StatusCode)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}

	resp, body := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz during drain: status %d body %s, want 503 draining", resp.StatusCode, body)
	}
	if resp, _ = getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain: status %d, want 200 (liveness only)", resp.StatusCode)
	}
	if resp, _ = postJSON(t, ts.URL+"/v1/run", client.RunRequest{Workload: "terasort"}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/v1/run during drain: status %d, want 429", resp.StatusCode)
	}
	tune := client.TuneRequest{Workload: "terasort", Target: map[string]float64{"IPC": 1}}
	if resp, _ = postJSON(t, ts.URL+"/v1/tune", tune); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/v1/tune during drain: status %d, want 429", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Errorf("drain wrote no final snapshot: %v", err)
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "proxyd_draining 1") {
		t.Error("metrics missing proxyd_draining 1")
	}
}

// TestDrainTimeoutStillSnapshots: when in-flight work outlives the shutdown
// budget, Drain reports the timeout but still writes the snapshot — the
// stuck job is persisted as running, which is exactly the record the next
// start re-enqueues (the crash path and the impatient-drain path converge).
func TestDrainTimeoutStillSnapshots(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Set("serve.tune", faultinject.Fault{Hook: func() error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}})
	defer close(release)

	s, ts := newTestServer(t, Config{StateDir: dir, ShutdownTimeout: 100 * time.Millisecond})
	req := client.TuneRequest{Workload: "terasort", MaxIterations: 1, Parameters: []string{"dataSize"},
		ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}, Target: map[string]float64{"IPC": 1}}
	if resp, body := postJSON(t, ts.URL+"/v1/tune", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tune: status %d body %s", resp.StatusCode, body)
	}
	<-started

	err := s.Drain(t.Context())
	if err == nil {
		t.Fatal("drain with a stuck job returned nil, want timeout")
	}
	st, rerr := snapshot.ReadFile(filepath.Join(dir, snapshotFile))
	if rerr != nil {
		t.Fatalf("reading the timeout snapshot: %v", rerr)
	}
	var running int
	for _, je := range st.Jobs {
		var rec jobRecord
		if err := json.Unmarshal(je.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Job.State == client.JobRunning {
			running++
		}
	}
	if running != 1 {
		t.Fatalf("timeout snapshot persists %d running jobs, want 1", running)
	}
}

// TestSnapshotWriteFailureIsCountedNotFatal: an injected snapshot write
// failure is surfaced in /metrics and leaves the previous on-disk snapshot
// intact; the next snapshot succeeds.
func TestSnapshotWriteFailureIsCountedNotFatal(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StateDir: dir})

	s.sched.memo.Restore("k1", perf.Metrics{Runtime: 1})
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Configure("serve.snapshot.write=error:disk full*1"); err != nil {
		t.Fatal(err)
	}
	s.sched.memo.Restore("k2", perf.Metrics{Runtime: 2})
	if err := s.SnapshotNow(); err == nil {
		t.Fatal("injected write failure returned nil")
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "proxyd_snapshot_write_errors_total 1") {
		t.Error("metrics missing snapshot write error count")
	}
	st, err := snapshot.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil || len(st.MemoEntries) != 1 {
		t.Fatalf("previous snapshot damaged by failed write: entries %v err %v", st, err)
	}

	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("snapshot after exhausted fault: %v", err)
	}
	if st, err = snapshot.ReadFile(filepath.Join(dir, snapshotFile)); err != nil || len(st.MemoEntries) != 2 {
		t.Fatalf("recovered snapshot: entries %d err %v, want 2", len(st.MemoEntries), err)
	}
}

// TestSnapshotHoldsLiveMemoAfterEviction pins the durability side of
// per-entry eviction: once the bounded cache has evicted, a snapshot holds
// exactly the live memo's completed entries — the evicted ones are gone from
// memory and from disk alike — and a warm restart answers each entry the
// snapshot holds from its restored cache.
func TestSnapshotHoldsLiveMemoAfterEviction(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := newTestServer(t, Config{StateDir: dir, MaxCacheEntries: 2})
	settings := []float64{1, 2, 3, 4}
	for _, dataSize := range settings {
		runDataSize(t, tsA.URL, dataSize)
	}
	if m := getMetrics(t, tsA.URL); !strings.Contains(m, "proxyd_cache_evictions_total 2\n") {
		t.Fatalf("want 2 evictions; metrics:\n%s", m)
	}
	if err := sA.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	live := sA.sched.memo.Export()
	if len(live) != 2 || len(st.MemoEntries) != len(live) {
		t.Fatalf("snapshot holds %d entries, live memo %d, cap 2", len(st.MemoEntries), len(live))
	}
	liveKeys := map[string]bool{}
	for i, e := range live {
		if st.MemoEntries[i].Key != e.Key {
			t.Fatalf("snapshot entry %d is %q, live memo entry %q", i, st.MemoEntries[i].Key, e.Key)
		}
		liveKeys[e.Key] = true
	}

	sB, tsB := newTestServer(t, Config{StateDir: dir, MaxCacheEntries: 2})
	pool, err := sB.sched.pool("westmere")
	if err != nil {
		t.Fatal(err)
	}
	b, err := proxy.ForWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, dataSize := range settings {
		if !liveKeys[tuner.MemoKey(pool.Proto(), b, core.Setting{"dataSize": dataSize})] {
			continue
		}
		warm++
		if !runDataSize(t, tsB.URL, dataSize) {
			t.Errorf("dataSize=%g was in the snapshot but the restarted server ran it cold", dataSize)
		}
	}
	if warm != len(live) {
		t.Fatalf("%d of the test's settings are in the snapshot, want all %d entries", warm, len(live))
	}
}

// TestRestoreFullQueueFailsJobInsteadOfHanging: more persisted unfinished
// jobs than the tune queue can hold must not deadlock New — the overflow is
// marked failed with a descriptive error.
func TestRestoreFullQueueFailsJobInsteadOfHanging(t *testing.T) {
	dir := t.TempDir()
	var jobs []snapshot.JobEntry
	for i := 1; i <= 3; i++ {
		payload, err := json.Marshal(jobRecord{
			Job: client.JobResponse{ID: jobID(i), State: client.JobQueued, Workload: "terasort", Arch: "westmere"},
			Request: client.TuneRequest{Workload: "terasort", Arch: "westmere",
				Target: map[string]float64{"IPC": 1}, MaxIterations: 1,
				Parameters: []string{"dataSize"}, ImpactFactors: []float64{1.25}, Metrics: []string{"IPC"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, snapshot.JobEntry{Payload: payload})
	}
	if _, err := snapshot.WriteFile(filepath.Join(dir, snapshotFile), &snapshot.State{Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	// JobQueueDepth 1: the dispatcher may drain the queue while restore
	// runs, so at least one job re-enqueues and none may hang the start.
	s, _ := newTestServer(t, Config{StateDir: dir, JobQueueDepth: 1})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		counts := s.jobs.counts()
		if counts[client.JobQueued] == 0 && counts[client.JobRunning] == 0 {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	counts := s.jobs.counts()
	if got := counts[client.JobDone] + counts[client.JobFailed]; got != 3 {
		t.Fatalf("restored jobs settled as %v, want all 3 done or failed", counts)
	}
}

// jobID formats the store's ID scheme for fixtures.
func jobID(n int) string { return fmt.Sprintf("job-%d", n) }

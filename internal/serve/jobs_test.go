package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
	"dataproxy/pkg/client"
)

// seedJobs installs a queued, a failed and a done job (job-1, job-2, job-3)
// with fixed timestamps.  The done job's vectors are encoded the way
// executeTune encodes them.
func seedJobs(t *testing.T, js *jobStore) {
	t.Helper()
	created := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	req := client.TuneRequest{Workload: "terasort", Arch: "westmere", MaxIterations: 2,
		Metrics: []string{"IPC", "MIPS"}, Target: map[string]float64{"IPC": 0.75, "MIPS": 1800}}
	js.create(req, created)
	failed := js.create(req, created)
	js.finish(failed.ID, nil, errors.New("serve: tune panicked: boom"), created.Add(time.Minute))
	done := js.create(req, created)
	target, err := perf.Metrics{Runtime: 40, IPC: 0.75, MIPS: 1800, L1DHit: 0.95, MemBW: 2.5e9}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	achieved, err := perf.Metrics{Runtime: 0.125, IPC: 0.703125, MIPS: 1800, L1DHit: 0.9, MemBW: 2.25e9}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	js.finish(done.ID, &client.TuneResult{
		Setting:         map[string]float64{"dataSize": 1.5, "numTasks": 0.8},
		Converged:       true,
		Iterations:      2,
		Evaluations:     7,
		MemoHits:        3,
		AverageAccuracy: 0.96875,
		WorstAccuracy:   0.9375,
		WorstMetric:     "IPC",
		PerMetric:       map[string]float64{"IPC": 0.9375, "MIPS": 1},
		Target:          target,
		ProxyMetrics:    achieved,
	}, nil, created.Add(2*time.Minute))
}

// seededJobBodies are the GET /v1/jobs/{id} bodies of seedJobs' jobs, byte
// for byte as the server wrote them when a job was its own struct with
// perf.Metrics result vectors.  The vectors keep perf.MetricNames order.
var seededJobBodies = map[string]string{
	"job-1": `{
  "id": "job-1",
  "state": "queued",
  "workload": "terasort",
  "arch": "westmere",
  "created": "2026-08-08T10:00:00Z"
}
`,
	"job-2": `{
  "id": "job-2",
  "state": "failed",
  "workload": "terasort",
  "arch": "westmere",
  "created": "2026-08-08T10:00:00Z",
  "finished": "2026-08-08T10:01:00Z",
  "error": "serve: tune panicked: boom"
}
`,
	"job-3": `{
  "id": "job-3",
  "state": "done",
  "workload": "terasort",
  "arch": "westmere",
  "created": "2026-08-08T10:00:00Z",
  "finished": "2026-08-08T10:02:00Z",
  "result": {
    "setting": {
      "dataSize": 1.5,
      "numTasks": 0.8
    },
    "converged": true,
    "iterations": 2,
    "evaluations": 7,
    "memo_hits": 3,
    "average_accuracy": 0.96875,
    "worst_accuracy": 0.9375,
    "worst_metric": "IPC",
    "per_metric_accuracy": {
      "IPC": 0.9375,
      "MIPS": 1
    },
    "target": {
      "runtime": 40,
      "IPC": 0.75,
      "MIPS": 1800,
      "load_ratio": 0,
      "store_ratio": 0,
      "branch_ratio": 0,
      "int_ratio": 0,
      "float_ratio": 0,
      "branch_miss": 0,
      "L1I_hit": 0,
      "L1D_hit": 0.95,
      "L2_hit": 0,
      "L3_hit": 0,
      "read_bw": 0,
      "write_bw": 0,
      "mem_bw": 2500000000,
      "disk_io_bw": 0
    },
    "proxy_metrics": {
      "runtime": 0.125,
      "IPC": 0.703125,
      "MIPS": 1800,
      "load_ratio": 0,
      "store_ratio": 0,
      "branch_ratio": 0,
      "int_ratio": 0,
      "float_ratio": 0,
      "branch_miss": 0,
      "L1I_hit": 0,
      "L1D_hit": 0.9,
      "L2_hit": 0,
      "L3_hit": 0,
      "read_bw": 0,
      "write_bw": 0,
      "mem_bw": 2250000000,
      "disk_io_bw": 0
    }
  }
}
`,
}

// legacyJobPayloads are snapshot payloads of seedJobs' finished jobs in the
// format written before jobs were stored as jobRecords: a Job struct (its
// Request hidden from the body) with perf.Metrics result vectors, wrapped
// as {"job", "request"}.
var legacyJobPayloads = []string{
	`{"job":{"id":"job-2","state":"failed","workload":"terasort","arch":"westmere","created":"2026-08-08T10:00:00Z","finished":"2026-08-08T10:01:00Z","error":"serve: tune panicked: boom"},"request":{"workload":"terasort","arch":"westmere","max_iterations":2,"metrics":["IPC","MIPS"],"target":{"IPC":0.75,"MIPS":1800}}}`,
	`{"job":{"id":"job-3","state":"done","workload":"terasort","arch":"westmere","created":"2026-08-08T10:00:00Z","finished":"2026-08-08T10:02:00Z","result":{"setting":{"dataSize":1.5,"numTasks":0.8},"converged":true,"iterations":2,"evaluations":7,"memo_hits":3,"average_accuracy":0.96875,"worst_accuracy":0.9375,"worst_metric":"IPC","per_metric_accuracy":{"IPC":0.9375,"MIPS":1},"target":{"runtime":40,"IPC":0.75,"MIPS":1800,"load_ratio":0,"store_ratio":0,"branch_ratio":0,"int_ratio":0,"float_ratio":0,"branch_miss":0,"L1I_hit":0,"L1D_hit":0.95,"L2_hit":0,"L3_hit":0,"read_bw":0,"write_bw":0,"mem_bw":2500000000,"disk_io_bw":0},"proxy_metrics":{"runtime":0.125,"IPC":0.703125,"MIPS":1800,"load_ratio":0,"store_ratio":0,"branch_ratio":0,"int_ratio":0,"float_ratio":0,"branch_miss":0,"L1I_hit":0,"L1D_hit":0.9,"L2_hit":0,"L3_hit":0,"read_bw":0,"write_bw":0,"mem_bw":2250000000,"disk_io_bw":0}}},"request":{"workload":"terasort","arch":"westmere","max_iterations":2,"metrics":["IPC","MIPS"],"target":{"IPC":0.75,"MIPS":1800}}}`,
}

// TestJobResponseByteCompatible pins the GET /v1/jobs/{id} body byte for
// byte for a queued, a failed and a done job.
func TestJobResponseByteCompatible(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	seedJobs(t, s.jobs)
	for id, want := range seededJobBodies {
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if string(body) != want {
			t.Errorf("%s body:\n%s\nwant:\n%s", id, body, want)
		}
	}
}

// writeJobSnapshot writes a snapshot holding only the given job payloads.
func writeJobSnapshot(t *testing.T, dir string, payloads ...string) {
	t.Helper()
	st := &snapshot.State{}
	for _, p := range payloads {
		st.Jobs = append(st.Jobs, snapshot.JobEntry{Payload: []byte(p)})
	}
	if _, err := snapshot.WriteFile(filepath.Join(dir, snapshotFile), st); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreLegacyJobPayloads restores finished jobs from the earlier
// snapshot format: each serves the same body as before and snapshots back
// to the same payload bytes.
func TestRestoreLegacyJobPayloads(t *testing.T) {
	dir := t.TempDir()
	writeJobSnapshot(t, dir, legacyJobPayloads...)
	s, ts := newTestServer(t, Config{StateDir: dir})
	if !strings.Contains(getMetrics(t, ts.URL), "proxyd_restore_invalid_entries_total 0") {
		t.Fatal("a legacy job payload was rejected")
	}
	for _, id := range []string{"job-2", "job-3"} {
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if want := seededJobBodies[id]; string(body) != want {
			t.Errorf("restored %s body:\n%s\nwant:\n%s", id, body, want)
		}
	}
	st, err := s.state.collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != len(legacyJobPayloads) {
		t.Fatalf("snapshot holds %d jobs, want %d", len(st.Jobs), len(legacyJobPayloads))
	}
	for i, je := range st.Jobs {
		if string(je.Payload) != legacyJobPayloads[i] {
			t.Errorf("job %d re-snapshots as\n%s\nwant\n%s", i, je.Payload, legacyJobPayloads[i])
		}
	}
}

// TestRestoreSkipsJobWithUnknownMetric: a done job's vectors are served
// verbatim, so a payload whose target or proxy_metrics names an unknown
// metric is skipped and counted, never restored.
func TestRestoreSkipsJobWithUnknownMetric(t *testing.T) {
	done := legacyJobPayloads[1]
	var payloads []string
	for i, vector := range []string{`"target":{`, `"proxy_metrics":{`} {
		p := strings.Replace(done, vector, vector+`"cycles":1,`, 1)
		p = strings.Replace(p, `"id":"job-3"`, `"id":"`+jobID(4+i)+`"`, 1)
		var rec jobRecord
		if p == done || json.Unmarshal([]byte(p), &rec) != nil {
			t.Fatalf("fixture %s is not a decodable variant of the done job", vector)
		}
		payloads = append(payloads, p)
	}
	dir := t.TempDir()
	writeJobSnapshot(t, dir, payloads...)
	_, ts := newTestServer(t, Config{StateDir: dir})
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "proxyd_restore_invalid_entries_total 2") {
		t.Errorf("metrics do not count both bad payloads:\n%s", m)
	}
	for _, id := range []string{jobID(4), jobID(5)} {
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with an unknown metric was restored (status %d)", id, resp.StatusCode)
		}
	}
}

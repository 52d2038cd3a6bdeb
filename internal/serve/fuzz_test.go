package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// fuzzServer lazily boots one Server per fuzz worker process with the
// evaluation seam stubbed out (fixed metrics, no simulation), so the fuzz
// loop exercises request decoding, validation and response encoding at
// full speed.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler(f *testing.F) http.Handler {
	fuzzOnce.Do(func() {
		s, err := New(Config{})
		if err != nil {
			f.Fatal(err)
		}
		s.sched.evalFn = func(pool *sim.ClusterPool, b *core.Benchmark, settings []core.Setting) ([]perf.Metrics, []bool, []error) {
			ms := make([]perf.Metrics, len(settings))
			fresh := make([]bool, len(settings))
			for i := range ms {
				ms[i] = perf.Metrics{Runtime: 1, IPC: 1, L1DHit: 0.9}
				fresh[i] = true
			}
			return ms, fresh, make([]error, len(settings))
		}
		fuzzSrv = s
	})
	return fuzzSrv.Handler()
}

// FuzzRunRequest posts arbitrary bodies at /v1/run.  The handler contract
// under a never-failing evaluator: no panic, never a 5xx (bad input is the
// client's fault, classified 400; load shedding is 429), and every
// response body — success or error — is valid JSON.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"workload":"terasort"}`))
	f.Add([]byte(`{"workload":"terasort","arch":"haswell","setting":{"dataSize":0.5}}`))
	f.Add([]byte(`{"workload":"terasort","settings":[{"dataSize":2},null,{"numTasks":0.5}]}`))
	f.Add([]byte(`{"workload":"kmeans","setting":{"dataSize":-1}}`))
	f.Add([]byte(`{"workload":"nope"}`))
	f.Add([]byte(`{"workload":"terasort","setting":{"bogus":1}}`))
	f.Add([]byte(`{"workload":"terasort","setting":{"dataSize":1},"settings":[{}]}`))
	f.Add([]byte(`{"workload":"terasort","settings":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))

	handler := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) from pure request input: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && rec.Code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body: %q", rec.Code, rec.Body.Bytes())
		}
	})
}

package apihttp

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dataproxy/pkg/client"
)

// TestMuxCountsLogsAndAnnotates drives the shared middleware: per-route
// counters list every registered route (zeros included), the in-flight
// gauge holds while a handler runs, and the request line carries the fixed
// fields, the Mux's static attributes and the handler's annotations.
func TestMuxCountsLogsAndAnnotates(t *testing.T) {
	var logs bytes.Buffer
	m := NewMux(slog.New(slog.NewTextHandler(&logs, nil)), "shard", "s1")
	var inFlight string
	m.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var metrics bytes.Buffer
		m.WriteMetrics(&metrics, "x")
		inFlight = metrics.String()
		Annotate(r.Context(), "coalesced", true)
		Error(w, http.StatusTooManyRequests, client.CodeShed, "busy", 0)
	})
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	m.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {})

	for range 2 {
		m.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/run", nil))
	}
	m.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))

	if !strings.Contains(inFlight, "x_http_in_flight 1\n") {
		t.Errorf("in-flight gauge inside a handler:\n%s", inFlight)
	}
	var metrics bytes.Buffer
	m.WriteMetrics(&metrics, "x")
	want := `x_http_requests_total{route="GET /healthz"} 1
x_http_requests_total{route="GET /metrics"} 0
x_http_requests_total{route="POST /v1/run"} 2
x_http_in_flight 0
`
	if metrics.String() != want {
		t.Errorf("metrics:\n%s\nwant:\n%s", metrics.String(), want)
	}

	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log lines, want one per request:\n%s", len(lines), logs.String())
	}
	run := lines[0]
	for _, field := range []string{"msg=request", "method=POST", `route="POST /v1/run"`, "status=429", "duration_ms=", "shard=s1", "coalesced=true"} {
		if !strings.Contains(run, field) {
			t.Errorf("run line missing %q: %s", field, run)
		}
	}
	if strings.Index(run, "shard=") > strings.Index(run, "coalesced=") {
		t.Errorf("annotations must follow the static attributes: %s", run)
	}
	if health := lines[2]; !strings.Contains(health, "status=200") || strings.Contains(health, "coalesced") {
		t.Errorf("healthz line should carry the implicit 200 and no annotation: %s", health)
	}
}

// TestMuxWithoutLogger: with request logging off a handler sees the request
// untouched (no annotation context value) and Annotate is a no-op, while
// counting still works.
func TestMuxWithoutLogger(t *testing.T) {
	m := NewMux(nil)
	var ctx context.Context
	m.HandleFunc("GET /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		ctx = r.Context()
		Annotate(ctx, "shard", "s1")
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/thing", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ctx.Value(notesKey{}) != nil {
		t.Error("a nil logger must not attach per-request annotations")
	}
	var metrics bytes.Buffer
	m.WriteMetrics(&metrics, "x")
	if !strings.Contains(metrics.String(), `x_http_requests_total{route="GET /v1/thing"} 1`) {
		t.Errorf("metrics:\n%s", metrics.String())
	}
}

// TestDecodeBody pins the shared decoder: strict fields, the raw bytes
// returned for forwarding, and the MaxBody cap.
func TestDecodeBody(t *testing.T) {
	decode := func(body string) ([]byte, error) {
		var v struct {
			Workload string `json:"workload"`
		}
		return DecodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &v)
	}
	raw, err := decode(`{"workload":"terasort"}`)
	if err != nil || string(raw) != `{"workload":"terasort"}` {
		t.Fatalf("valid body: %q %v", raw, err)
	}
	if _, err := decode(`{"workloud":"terasort"}`); err == nil || !strings.Contains(err.Error(), "decoding request") {
		t.Errorf("unknown field: %v", err)
	}
	big := `{"workload":"terasort"` + strings.Repeat(" ", MaxBody) + `}`
	if _, err := decode(big); err == nil || !strings.Contains(err.Error(), "reading request") {
		t.Errorf("body past MaxBody: %v", err)
	}
}

// TestBuildRequestLog pins the -log-level parser both daemons share.
func TestBuildRequestLog(t *testing.T) {
	if lg, err := BuildRequestLog(""); err != nil || lg != nil {
		t.Fatalf("empty level should disable logging, got %v, %v", lg, err)
	}
	lg, err := BuildRequestLog("info")
	if err != nil || lg == nil {
		t.Fatalf("info level: %v, %v", lg, err)
	}
	if !lg.Enabled(context.Background(), slog.LevelInfo) || lg.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatal("info logger should pass info and suppress debug")
	}
	if _, err := BuildRequestLog("loud"); err == nil {
		t.Fatal("unknown level should be rejected")
	}
}

package apihttp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dataproxy/pkg/client"
)

func TestWriteJSONIsIndentedAndTyped(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]string{"status": "ok"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d, want 201", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want := "{\n  \"status\": \"ok\"\n}\n"
	if rec.Body.String() != want {
		t.Fatalf("body = %q, want %q", rec.Body.String(), want)
	}
}

func TestErrorEnvelopeAndRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusTooManyRequests, client.CodeShed, "queue full", 1500*time.Millisecond)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rec.Code)
	}
	// Retry-After is whole seconds, rounded up.
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %v (%s)", err, rec.Body.String())
	}
	if env.Error.Code != client.CodeShed || env.Error.Message != "queue full" || env.Error.RetryAfterMS != 1500 {
		t.Fatalf("envelope = %+v", env.Error)
	}

	// No delay advertised: no Retry-After header, no retry_after_ms field.
	rec = httptest.NewRecorder()
	Error(rec, http.StatusBadRequest, client.CodeBadRequest, "bad", 0)
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("unexpected Retry-After %q", ra)
	}
	if strings.Contains(rec.Body.String(), "retry_after_ms") {
		t.Fatalf("retry_after_ms should be omitted: %s", rec.Body.String())
	}
}

func TestCodeForStatus(t *testing.T) {
	cases := map[int]client.ErrorCode{
		http.StatusBadRequest:          client.CodeBadRequest,
		http.StatusMethodNotAllowed:    client.CodeBadRequest,
		http.StatusNotFound:            client.CodeNotFound,
		http.StatusTooManyRequests:     client.CodeShed,
		http.StatusServiceUnavailable:  client.CodeUnavailable,
		http.StatusInternalServerError: client.CodeInternal,
		http.StatusTeapot:              client.CodeInternal,
	}
	for status, want := range cases {
		if got := CodeForStatus(status); got != want {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestEnvelopeFallbackRewritesMuxErrors(t *testing.T) {
	h := NewMux(nil)
	h.HandleFunc("POST /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Unmatched route: the mux's text 404 becomes a not_found envelope.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("404 body is not an envelope: %v (%s)", err, rec.Body.String())
	}
	if env.Error.Code != client.CodeNotFound || env.Error.Message != "no such route" {
		t.Fatalf("envelope = %+v", env.Error)
	}

	// Wrong method: the mux's text 405 becomes a bad_request envelope.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/thing", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("405 body is not an envelope: %v (%s)", err, rec.Body.String())
	}
	if env.Error.Code != client.CodeBadRequest || env.Error.Message != "method not allowed" {
		t.Fatalf("envelope = %+v", env.Error)
	}

	// Handler-made JSON responses pass through untouched.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/thing", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "{\n  \"status\": \"ok\"\n}\n" {
		t.Fatalf("pass-through perturbed: %d %q", rec.Code, rec.Body.String())
	}
}

func TestEnvelopeFallbackLeavesHandlerErrorsAlone(t *testing.T) {
	// A handler that writes its own JSON 404 (e.g. an unknown job ID) must
	// not have its body swallowed.
	h := NewMux(nil)
	h.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		Error(w, http.StatusNotFound, client.CodeNotFound, "no such job", 0)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-9", nil))
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %v", err)
	}
	if env.Error.Message != "no such job" {
		t.Fatalf("handler envelope replaced: %+v", env.Error)
	}
}

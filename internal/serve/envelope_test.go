package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dataproxy/internal/apihttp"
	"dataproxy/pkg/client"
)

// knownCodes is the closed set of stable error codes the serving layer may
// emit; the conformance test fails on anything outside it.
var knownCodes = map[client.ErrorCode]bool{
	client.CodeBadRequest:  true,
	client.CodeShed:        true,
	client.CodeDraining:    true,
	client.CodeNotFound:    true,
	client.CodeInternal:    true,
	client.CodeUnavailable: true,
}

// TestErrorEnvelopeConformance drives every error path the HTTP surface can
// take — handler-side validation failures, shed/draining rejections, missing
// resources, and the mux's own unmatched-route and wrong-method errors — and
// asserts each response is the versioned JSON envelope with a known stable
// code, never a bare-text body.  Retryable (429/503) responses must carry a
// Retry-After header agreeing with the body's retry_after_ms.
func TestErrorEnvelopeConformance(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		draining   bool
		wantStatus int
		wantCode   client.ErrorCode
	}{
		{"malformed json", "POST", "/v1/run", `{"workload":`, false, 400, client.CodeBadRequest},
		{"unknown field", "POST", "/v1/run", `{"workloud":"wc"}`, false, 400, client.CodeBadRequest},
		{"unknown workload", "POST", "/v1/run", `{"workload":"nope"}`, false, 400, client.CodeBadRequest},
		{"unknown arch", "POST", "/v1/run", `{"workload":"terasort","arch":"alpha"}`, false, 400, client.CodeBadRequest},
		{"setting and settings", "POST", "/v1/run", `{"workload":"terasort","setting":{},"settings":[{}]}`, false, 400, client.CodeBadRequest},
		{"empty batch", "POST", "/v1/run", `{"workload":"terasort","settings":[]}`, false, 400, client.CodeBadRequest},
		{"deleted run parameter", "POST", "/v1/run", `{"workload":"alexnet","setting":{"heightSize":2}}`, false, 400, client.CodeBadRequest},
		{"bad tune threshold", "POST", "/v1/tune", `{"workload":"terasort","threshold":2}`, false, 400, client.CodeBadRequest},
		{"deleted tune parameter", "POST", "/v1/tune", `{"workload":"alexnet","parameters":["totalSize"]}`, false, 400, client.CodeBadRequest},
		{"unknown job", "GET", "/v1/jobs/job-999", "", false, 404, client.CodeNotFound},
		{"unmatched route", "GET", "/v1/nope", "", false, 404, client.CodeNotFound},
		{"wrong method", "GET", "/v1/run", "", false, 405, client.CodeBadRequest},
		{"run while draining", "POST", "/v1/run", `{"workload":"terasort"}`, true, 429, client.CodeShed},
		{"tune while draining", "POST", "/v1/tune", `{"workload":"terasort"}`, true, 429, client.CodeDraining},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s.sched.draining.Store(tc.draining)
			defer func() {
				s.sched.draining.Store(false)
			}()

			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}

			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d body %s, want %d", resp.StatusCode, raw, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q is not JSON (body %s)", ct, raw)
			}
			var env client.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("body is not a decodable envelope: %v (body %s)", err, raw)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (body %s)", env.Error.Code, tc.wantCode, raw)
			}
			if !knownCodes[env.Error.Code] {
				t.Errorf("code %q outside the stable set", env.Error.Code)
			}
			if env.Error.Message == "" {
				t.Error("envelope has an empty message")
			}
			if resp.StatusCode == 429 || resp.StatusCode == 503 {
				ra := resp.Header.Get("Retry-After")
				if ra == "" {
					t.Fatal("retryable response is missing Retry-After")
				}
				secs, err := strconv.ParseInt(ra, 10, 64)
				if err != nil || secs <= 0 {
					t.Fatalf("unparsable Retry-After %q", ra)
				}
				if env.Error.RetryAfterMS <= 0 || env.Error.RetryAfterMS > secs*1000 {
					t.Errorf("retry_after_ms %d disagrees with Retry-After %ds", env.Error.RetryAfterMS, secs)
				}
			}
		})
	}
}

// TestOversizedBodyIsRejected: a request body past apihttp.MaxBody is a 400
// bad_request even when it is valid JSON, so no client can make the replica
// buffer an unbounded body.
func TestOversizedBodyIsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"workload":"terasort"` + strings.Repeat(" ", apihttp.MaxBody) + `}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env client.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("body is not an envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != client.CodeBadRequest {
		t.Fatalf("oversized body: %d %+v, want 400 bad_request", resp.StatusCode, env.Error)
	}
}

// Package client is the typed Go client of the proxyd/proxyrouter /v1 API —
// the one programmatic way this repository talks to a serving process.  It
// decodes the versioned error envelope every /v1 error response carries
// ({"error":{"code","message","retry_after_ms"}}) into *APIError values that
// callers classify with IsShed / IsRetryable / IsNotFound instead of string
// matching, and it retries shed responses itself with a bounded backoff that
// honours the server-advertised retry delay.
//
// The package depends only on the standard library, so it is importable from
// outside the module, and it owns the wire contract: the serving layer and
// the router both decode /v1 requests into, and build every /v1 response
// from, these types.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to one proxyd replica or proxyrouter base URL.  The zero
// value is not usable; construct it with New.  A Client is safe for
// concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
	sleep      func(ctx context.Context, d time.Duration) error
}

// Option customises a Client at construction.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default: a dedicated
// client with a 2-minute timeout — proxy simulations are long requests).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries bounds how many times a retryable (shed/draining/unavailable)
// response is retried before the error is returned (default 3; 0 disables
// retrying).
func WithRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the base and cap of the exponential retry backoff
// (defaults 50ms and 2s).  A server-advertised Retry-After longer than the
// computed backoff wins.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxBackoff = base, max }
}

// New returns a Client for the given base URL (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{Timeout: 2 * time.Minute},
		maxRetries: 3,
		backoff:    50 * time.Millisecond,
		maxBackoff: 2 * time.Second,
	}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the base URL the client was constructed with.
func (c *Client) BaseURL() string { return c.base }

// do sends one JSON request (body may be nil) and decodes a 2xx response
// into out (which may be nil).  Non-2xx responses become *APIError; errors
// that IsRetryable classifies as transient are retried up to the configured
// bound, honouring the server's advertised delay.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, encoded, out)
		if err == nil || !IsRetryable(err) || attempt >= c.maxRetries {
			return err
		}
		wait := delay
		if ae, ok := AsAPIError(err); ok && ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return serr
		}
		if delay *= 2; delay > c.maxBackoff {
			delay = c.maxBackoff
		}
	}
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp.StatusCode, resp.Header, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Run executes a single-setting proxy run (req.Settings must be nil; use
// RunBatch for batches).
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	if req.Settings != nil {
		return nil, errors.New("client: Run takes a single setting; use RunBatch for settings batches")
	}
	var out RunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunBatch executes a settings batch (req.Settings must be non-empty) and
// returns one result per setting in request order.
func (c *Client) RunBatch(ctx context.Context, req RunRequest) (*RunBatchResponse, error) {
	if len(req.Settings) == 0 {
		return nil, errors.New("client: RunBatch needs a non-empty Settings batch")
	}
	var out RunBatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tune submits an asynchronous qualification job; poll it with PollJob.
func (c *Client) Tune(ctx context.Context, req TuneRequest) (*TuneResponse, error) {
	var out TuneResponse
	if err := c.do(ctx, http.MethodPost, "/v1/tune", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job record by ID.
func (c *Client) Job(ctx context.Context, id string) (*JobResponse, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PollJob polls GET /v1/jobs/{id} every interval (default 25ms when
// non-positive) until the job reaches a terminal state or ctx ends.  A
// failed job is returned with a nil error — the job record carries the
// failure; transport and envelope errors are returned as errors.
func (c *Client) PollJob(ctx context.Context, id string, interval time.Duration) (*JobResponse, error) {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if job.IsFinished() {
			return job, nil
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}

// Workloads lists the servable proxy benchmarks.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var out []WorkloadInfo
	if err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Archs lists the servable architecture profiles.
func (c *Client) Archs(ctx context.Context) ([]ArchInfo, error) {
	var out []ArchInfo
	if err := c.do(ctx, http.MethodGet, "/v1/archs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cluster fetches the responding process's view of the fleet: its shard
// name, role, and peers (with health, and keyspace shares from a router).
func (c *Client) Cluster(ctx context.Context) (*ClusterResponse, error) {
	var out ClusterResponse
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy checks GET /healthz (pure liveness).  Liveness and readiness
// probes are point-in-time checks, so they are never retried.
func (c *Client) Healthy(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready checks GET /readyz; a 503 (restoring/draining, or a router with no
// healthy backend) is returned as an *APIError without retrying.
func (c *Client) Ready(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/readyz", nil, nil)
}

// MetricsText fetches the Prometheus-style /metrics exposition verbatim;
// pick single gauges out of it with ParseMetric.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp.StatusCode, resp.Header, data)
	}
	return string(data), nil
}

// ParseMetric extracts the value of one exposition line by its exact name —
// labels included, e.g. `proxyd_run_executed_total` or
// `proxyrouter_backend_healthy{backend="s1"}`.  It reports false when the
// metric is absent.
func ParseMetric(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

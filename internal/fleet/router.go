package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/apihttp"
	"dataproxy/internal/core"
	"dataproxy/pkg/client"
)

// Backend names one proxyd replica the router fronts.
type Backend struct {
	// Name is the replica's shard name (its proxyd -name / Config.Name),
	// which prefixes the job IDs the router hands out.
	Name string
	// URL is the replica's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// Config configures a Router.  The zero value of every optional field
// selects a sensible default.
type Config struct {
	// Name is the router's own name, reported by GET /v1/cluster.  Empty
	// selects "proxyrouter".
	Name string
	// Backends lists the proxyd replicas to shard over.  At least one is
	// required; names must be unique and must not contain ".", the job-ID
	// separator.
	Backends []Backend
	// ProbeInterval is the cadence of background /readyz health probes.
	// Zero selects 1 second.
	ProbeInterval time.Duration
	// RequestLog, when non-nil, receives one structured line per routed
	// request (method, route, status, duration, owning shard).  Nil disables
	// request logging.
	RequestLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "proxyrouter"
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// backend is one replica's runtime state: health, its typed API client for
// split batches, and traffic counters.
type backend struct {
	name string
	url  string

	healthy   atomic.Bool
	api       *client.Client
	forwarded atomic.Int64
}

// Router fronts a proxyd fleet behind the single-node /v1 API: every request
// forwards to the consistent-hash owner of its sharding key (RunKey/TuneKey),
// batches split per owner and rejoin in request order, and an unreachable
// owner's keyspace fails over to its ring successors.  The router holds no
// simulation state of its own — ownership placement plus the replicas' own
// result caches are what guarantee the fleet never simulates a trace shape
// more often than one replica would.  Create it with NewRouter, serve Handler, and Close it to stop the
// health-probe loop.
type Router struct {
	cfg      Config
	ring     *Ring
	backends []*backend // sorted by name
	byName   map[string]*backend
	mux      *apihttp.Mux
	hc       *http.Client // forwards; per-request contexts bound lifetime

	stop      chan struct{}
	closeOnce sync.Once
	done      sync.WaitGroup

	failovers        atomic.Int64
	unavailableTotal atomic.Int64
}

// NewRouter builds a Router over the configured backends and starts its
// health-probe loop.  Backends start healthy and are re-judged every
// ProbeInterval (and on every forwarding outcome).
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: at least one backend is required")
	}
	rt := &Router{
		cfg:    cfg,
		mux:    apihttp.NewMux(cfg.RequestLog),
		byName: make(map[string]*backend, len(cfg.Backends)),
		hc:     &http.Client{},
		stop:   make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("fleet: backend %+v needs both a name and a URL", b)
		}
		if strings.Contains(b.Name, ".") {
			return nil, fmt.Errorf("fleet: backend name %q must not contain %q (the job-ID separator)", b.Name, ".")
		}
		if rt.byName[b.Name] != nil {
			return nil, fmt.Errorf("fleet: duplicate backend name %q", b.Name)
		}
		bk := &backend{
			name: b.Name,
			url:  strings.TrimRight(b.URL, "/"),
		}
		bk.api = client.New(bk.url, client.WithRetries(0), client.WithHTTPClient(rt.hc))
		bk.healthy.Store(true)
		rt.backends = append(rt.backends, bk)
		rt.byName[b.Name] = bk
		names = append(names, b.Name)
	}
	sort.Slice(rt.backends, func(i, j int) bool { return rt.backends[i].name < rt.backends[j].name })
	rt.ring = NewRing(names, DefaultVnodes)
	rt.routes()
	rt.done.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health-probe loop.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.done.Wait()
}

// Handler returns the HTTP handler serving the fleet-fronting /v1 API
// behind the same apihttp middleware as a single replica: even
// unmatched-route and wrong-method errors carry the versioned error
// envelope.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/workloads", rt.handleListing)
	rt.mux.HandleFunc("GET /v1/archs", rt.handleListing)
	rt.mux.HandleFunc("POST /v1/run", rt.handleRun)
	rt.mux.HandleFunc("POST /v1/tune", rt.handleTune)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
}

// alive reports a backend's current health; it is the ring's liveness input.
func (rt *Router) alive(name string) bool { return rt.byName[name].healthy.Load() }

// unavailable sheds a request for which no backend is reachable: 503 with
// the stable "unavailable" code and a retry hint, the only 5xx the router
// itself originates.
func (rt *Router) unavailable(w http.ResponseWriter, msg string) {
	rt.unavailableTotal.Add(1)
	apihttp.Fail(w, http.StatusServiceUnavailable, errors.New(msg))
}

// send performs one HTTP exchange with a backend and folds the transport
// outcome into its health: an unreachable backend is marked dead, any
// response (including an error status — the replica is alive enough to
// answer) marks it healthy.
func (rt *Router) send(ctx context.Context, b *backend, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return nil, err
	}
	b.healthy.Store(true)
	return resp, nil
}

// forwardRaw forwards body to the owner of key, walking the ring past
// backends that turn out to be unreachable (each counted as a failover).
// It returns the owning backend and its response — whatever the status; a
// backend's own error envelopes are authoritative and relayed, never
// retried elsewhere.  ok is false when no backend is reachable at all.
func (rt *Router) forwardRaw(ctx context.Context, key, method, path string, body []byte) (*backend, *http.Response, bool) {
	tried := make(map[string]bool)
	for {
		owner, ok := rt.ring.Owner(key, func(n string) bool { return !tried[n] && rt.alive(n) })
		if !ok {
			return nil, nil, false
		}
		b := rt.byName[owner]
		resp, err := rt.send(ctx, b, method, path, body)
		if err != nil {
			tried[owner] = true
			rt.failovers.Add(1)
			continue
		}
		b.forwarded.Add(1)
		apihttp.Annotate(ctx, "shard", b.name)
		return b, resp, true
	}
}

// relayBufs recycles the buffers relay copies bodies through.  A backend
// body has no WriteTo and the route middleware's writer hides ReadFrom, so
// a plain io.Copy would allocate a 32 KB buffer per forwarded response.
var relayBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// relay copies a backend response to the client byte-for-byte: status,
// content type, retry hint and body.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[]byte)
	_, _ = io.CopyBuffer(w, resp.Body, *buf)
	relayBufs.Put(buf)
}

// handleRun serves POST /v1/run.  A single-setting body is planned as a
// one-setting batch, so single runs and batches take one path: each trace
// shape is owned by one shard, the request splits into one sub-batch per
// owner, the sub-batches execute concurrently, and the results rejoin in
// request order.  The shed contract stays all-or-nothing across the whole
// batch: any sub-batch error (a 429 included) fails the entire request with
// that error relayed, so a retried batch is answered consistently — and
// mostly from the shards' caches.  A request whose settings all map to one
// owner — a single run always — forwards verbatim, so the response bytes
// are exactly what the replica produced, and a single-backend fleet is a
// pure passthrough.
func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	body, err := apihttp.DecodeBody(w, r, &req)
	if err != nil {
		apihttp.Fail(w, http.StatusBadRequest, fmt.Errorf("fleet: %w", err))
		return
	}
	switch {
	case req.Settings == nil:
		req.Settings = []map[string]float64{req.Setting}
	case req.Setting != nil:
		apihttp.Fail(w, http.StatusBadRequest, errors.New(`fleet: request must set "setting" or "settings", not both`))
		return
	case len(req.Settings) == 0:
		apihttp.Fail(w, http.StatusBadRequest, errors.New(`fleet: "settings" must contain at least one setting`))
		return
	}
	// A transport failure mid-fan-out marks the backend dead and replans the
	// whole batch against the updated ring; each replan loses at most one
	// backend, which bounds the loop.
	for attempt := 0; attempt <= len(rt.backends); attempt++ {
		groups, ok := rt.planBatch(req)
		if !ok {
			break
		}
		if len(groups) == 1 {
			_, resp, ok := rt.forwardRaw(r.Context(), groups[0].key, http.MethodPost, "/v1/run", body)
			if !ok {
				break
			}
			relay(w, resp)
			return
		}
		out, retry, err := rt.runGroups(r.Context(), req, groups)
		if retry {
			continue
		}
		if err != nil {
			rt.relayError(w, err)
			return
		}
		apihttp.WriteJSON(w, http.StatusOK, out)
		return
	}
	rt.unavailable(w, "fleet: no backend reachable for /v1/run")
}

// batchGroup is the slice of a batch owned by one backend.
type batchGroup struct {
	backend *backend
	key     string // RunKey of the group's first setting; a verbatim forward routes by it
	indices []int  // positions in the original Settings array
}

// planBatch assigns every setting of a batch to its live owner, returning
// the per-owner groups in backend-name order.  ok is false when no backend
// is alive.
func (rt *Router) planBatch(req client.RunRequest) ([]*batchGroup, bool) {
	byOwner := make(map[string]*batchGroup)
	for i, s := range req.Settings {
		key := RunKey(req.Workload, req.Arch, core.Setting(s))
		owner, ok := rt.ring.Owner(key, rt.alive)
		if !ok {
			return nil, false
		}
		g := byOwner[owner]
		if g == nil {
			g = &batchGroup{backend: rt.byName[owner], key: key}
			byOwner[owner] = g
		}
		g.indices = append(g.indices, i)
	}
	groups := make([]*batchGroup, 0, len(byOwner))
	for _, g := range byOwner {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].backend.name < groups[j].backend.name })
	return groups, true
}

// runGroups executes a planned batch: one concurrent sub-batch per owning
// backend, rejoined in request order.  retry is true when a transport
// failure invalidated the plan (the dead backend is already marked); err is
// the first sub-batch API error in backend-name order, relayed all-or-
// nothing.
func (rt *Router) runGroups(ctx context.Context, req client.RunRequest, groups []*batchGroup) (*client.RunBatchResponse, bool, error) {
	responses := make([]*client.RunBatchResponse, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi, g := range groups {
		wg.Add(1)
		go func(gi int, g *batchGroup) {
			defer wg.Done()
			sub := client.RunRequest{Workload: req.Workload, Arch: req.Arch, Settings: make([]map[string]float64, len(g.indices))}
			for j, i := range g.indices {
				sub.Settings[j] = req.Settings[i]
			}
			responses[gi], errs[gi] = g.backend.api.RunBatch(ctx, sub)
			g.backend.forwarded.Add(1)
		}(gi, g)
	}
	wg.Wait()
	out := &client.RunBatchResponse{Results: make([]client.RunResult, len(req.Settings))}
	var retry bool
	var firstErr error
	for gi, g := range groups {
		if err := errs[gi]; err != nil {
			if _, ok := client.AsAPIError(err); ok {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				// Transport failure: send marked nothing (the typed client did
				// the exchange), so mark the backend dead here and replan.
				g.backend.healthy.Store(false)
				rt.failovers.Add(1)
				retry = true
			}
			continue
		}
		resp := responses[gi]
		out.Workload, out.Benchmark, out.Arch = resp.Workload, resp.Benchmark, resp.Arch
		for j, i := range g.indices {
			out.Results[i] = resp.Results[j]
		}
	}
	if retry {
		return nil, true, nil
	}
	if firstErr != nil {
		return nil, false, firstErr
	}
	return out, false, nil
}

// relayError writes a typed client error back out as the envelope it came
// from, preserving status, code, message and retry hint across the hop.
func (rt *Router) relayError(w http.ResponseWriter, err error) {
	if ae, ok := client.AsAPIError(err); ok {
		apihttp.Error(w, ae.Status, ae.Code, ae.Message, ae.RetryAfter)
		return
	}
	apihttp.Fail(w, http.StatusInternalServerError, err)
}

// handleTune serves POST /v1/tune: the job goes to the TuneKey owner so its
// evaluations hit that shard's cache, and the returned job ID is prefixed
// with the owning shard's name ("s1.job-3") so GET /v1/jobs/{id} can route
// back without any router-side job state.
func (rt *Router) handleTune(w http.ResponseWriter, r *http.Request) {
	var req client.TuneRequest
	body, err := apihttp.DecodeBody(w, r, &req)
	if err != nil {
		apihttp.Fail(w, http.StatusBadRequest, fmt.Errorf("fleet: %w", err))
		return
	}
	b, resp, ok := rt.forwardRaw(r.Context(), TuneKey(req.Workload, req.Arch), http.MethodPost, "/v1/tune", body)
	if !ok {
		rt.unavailable(w, "fleet: no backend reachable for /v1/tune")
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		relay(w, resp)
		return
	}
	defer resp.Body.Close()
	var tr client.TuneResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		apihttp.Fail(w, http.StatusInternalServerError, fmt.Errorf("fleet: undecodable tune response from %s: %v", b.name, err))
		return
	}
	tr.JobID = b.name + "." + tr.JobID
	apihttp.WriteJSON(w, http.StatusAccepted, tr)
}

// handleJob serves GET /v1/jobs/{id} for router-issued IDs: the shard-name
// prefix picks the replica, which is asked for the unprefixed job.  The
// response echoes the prefixed ID so the resource a client polls is the one
// it reads.  An unreachable owning shard is a 503 (the job may still exist
// there), an unknown prefix a 404.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shard, rest, ok := strings.Cut(id, ".")
	b := rt.byName[shard]
	if !ok || rest == "" || b == nil {
		apihttp.Fail(w, http.StatusNotFound, fmt.Errorf("fleet: unknown job %q (router job IDs look like shard.job-N)", id))
		return
	}
	resp, err := rt.send(r.Context(), b, http.MethodGet, "/v1/jobs/"+rest, nil)
	if err != nil {
		rt.unavailable(w, fmt.Sprintf("fleet: shard %q unreachable", shard))
		return
	}
	b.forwarded.Add(1)
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	defer resp.Body.Close()
	var job client.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		apihttp.Fail(w, http.StatusInternalServerError, fmt.Errorf("fleet: undecodable job response from %s: %v", shard, err))
		return
	}
	job.ID = id
	apihttp.WriteJSON(w, http.StatusOK, job)
}

// handleListing relays GET /v1/workloads and GET /v1/archs from any
// reachable replica — the library is identical fleet-wide, so the first
// answer wins (healthy backends are tried first).
func (rt *Router) handleListing(w http.ResponseWriter, r *http.Request) {
	for _, healthyPass := range []bool{true, false} {
		for _, b := range rt.backends {
			if b.healthy.Load() != healthyPass {
				continue
			}
			resp, err := rt.send(r.Context(), b, http.MethodGet, r.URL.Path, nil)
			if err != nil {
				continue
			}
			b.forwarded.Add(1)
			relay(w, resp)
			return
		}
	}
	rt.unavailable(w, "fleet: no backend reachable for "+r.URL.Path)
}

// handleCluster serves GET /v1/cluster on the router: its own name, the
// router role, and every backend with its health and current keyspace share
// (a dead backend's share is 0 — its arcs have moved to the successors).
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	shares := rt.ring.Shares(rt.alive)
	out := client.ClusterResponse{Self: rt.cfg.Name, Role: client.RoleRouter, Peers: make([]client.PeerInfo, 0, len(rt.backends))}
	for _, b := range rt.backends {
		out.Peers = append(out.Peers, client.PeerInfo{
			Name:          b.name,
			URL:           b.url,
			Healthy:       b.healthy.Load(),
			KeyspaceShare: shares[b.name],
		})
	}
	apihttp.WriteJSON(w, http.StatusOK, out)
}

// handleHealthz is the router's pure liveness probe.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	apihttp.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: the router can do useful work while at least
// one backend is reachable.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, b := range rt.backends {
		if b.healthy.Load() {
			apihttp.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	apihttp.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no reachable backend"})
}

// handleMetrics renders the router's Prometheus-style exposition: request
// counts per route and the in-flight gauge, per-backend health, forwarding
// and keyspace gauges, and the failover/unavailable totals.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rt.mux.WriteMetrics(w, "proxyrouter")
	shares := rt.ring.Shares(rt.alive)
	for _, b := range rt.backends {
		healthy := 0
		if b.healthy.Load() {
			healthy = 1
		}
		fmt.Fprintf(w, "proxyrouter_backend_healthy{backend=%q} %d\n", b.name, healthy)
		fmt.Fprintf(w, "proxyrouter_backend_forwarded_total{backend=%q} %d\n", b.name, b.forwarded.Load())
		fmt.Fprintf(w, "proxyrouter_shard_keyspace_share{backend=%q} %g\n", b.name, shares[b.name])
	}
	fmt.Fprintf(w, "proxyrouter_failovers_total %d\n", rt.failovers.Load())
	fmt.Fprintf(w, "proxyrouter_unavailable_total %d\n", rt.unavailableTotal.Load())
}

// probeLoop re-judges every backend's health on a fixed cadence, so a
// replica that died silently is dropped from the ring before the next
// request has to discover it, and a recovered (or done-draining) one
// rejoins without traffic.
func (rt *Router) probeLoop() {
	defer rt.done.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeOnce()
		}
	}
}

// probeOnce probes every backend's /readyz once: a replica that is down,
// restoring or draining leaves the ring (readiness, not liveness, gates new
// work) and its keyspace moves to its successors until it is ready again.
func (rt *Router) probeOnce() {
	for _, b := range rt.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := b.api.Ready(ctx)
		cancel()
		b.healthy.Store(err == nil)
	}
}

// Package serve implements the proxyd HTTP serving layer: a long-running
// service that exposes the proxy-benchmark library as an API.  POST /v1/run
// executes a proxy benchmark under a tuning setting on a chosen architecture
// profile and returns its virtual runtime and metric vector; POST /v1/tune
// kicks off asynchronous proxy qualification polled via GET /v1/jobs/{id};
// GET /v1/workloads and GET /v1/archs enumerate the library; GET /healthz,
// GET /readyz and GET /metrics expose liveness, readiness (503 while
// restoring or draining) and request/cache/queue/durability counters.
//
// With Config.StateDir set the daemon is crash-safe: the result cache and
// job table are snapshotted through internal/snapshot (checksummed records,
// atomic renames) periodically and on graceful drain, and restored — with
// every record re-validated — at the next start, so an interrupted tune job
// is re-enqueued and converges against the restored cache instead of
// repeating finished measurements.  Damaged or future-version snapshots
// degrade to a cold start, never to a crash.
//
// The layer reuses the repository's load-bearing contracts rather than
// inventing new ones: all compute fans out on the internal/parallel helper
// pool (the scheduler itself adds no goroutines beyond one long-lived job
// dispatcher), identical /v1/run requests coalesce through a singleflight
// tuner.Memo keyed bit-exactly like the auto-tuner's measurement memo, each
// execution runs on an isolated cluster drawn from a per-architecture
// sim.ClusterPool, and a bounded admission queue sheds overload with 429s
// instead of oversubscribing the host.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/apihttp"
	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
	"dataproxy/pkg/client"
)

// Config tunes the server's admission policy and queue sizes.  The zero
// value selects sensible defaults for every field.
type Config struct {
	// MaxInFlight bounds how many proxy simulations execute concurrently.
	// Zero selects parallel.Workers(): one admitted simulation per host
	// worker, leaving the intra-simulation fan-out to the helper pool.
	MaxInFlight int
	// QueueDepth is how many admitted /v1/run requests may wait for an
	// execution slot; requests beyond MaxInFlight+QueueDepth are shed with
	// 429.  Zero selects 16; negative selects 0 (shed as soon as all slots
	// are busy).
	QueueDepth int
	// JobQueueDepth bounds the queued (not yet running) asynchronous tuning
	// jobs; POST /v1/tune beyond it is shed with 429.  Zero selects 16.
	JobQueueDepth int
	// MaxCacheEntries bounds the result cache of a long-running server:
	// clients choose the settings, so the cache holds at most this many
	// completed entries and evicts them one at a time (CLOCK), keeping the
	// ones hit since the eviction hand last passed.  Entries still in flight
	// are never evicted and may exceed the cap.  Zero selects 4096.
	MaxCacheEntries int
	// CoalesceWindow bounds how long a cold single /v1/run may wait for
	// concurrent cold companions before its collection window drains; a
	// lone request, a batch and a window of 16 lanes drain immediately, so
	// the window is a worst-case bound, not a tax.  Non-positive selects
	// 2ms.
	CoalesceWindow time.Duration
	// RequestLog, when non-nil, receives one structured line per HTTP
	// request (method, route, status, duration, shard, coalesced flag).
	// Nil disables request logging.
	RequestLog *slog.Logger
	// StateDir, when non-empty, makes the server durable: the result cache
	// and job table are restored from StateDir at startup and snapshotted
	// back periodically and on graceful drain.  Empty disables persistence.
	StateDir string
	// SnapshotInterval is the cadence of background snapshots when StateDir
	// is set.  Zero selects 30 seconds.
	SnapshotInterval time.Duration
	// ShutdownTimeout bounds how long Drain waits for in-flight work before
	// snapshotting and giving up.  Zero selects 10 seconds.
	ShutdownTimeout time.Duration
	// Name is this replica's shard name, reported by GET /v1/cluster and
	// attached to outgoing gossip.  Empty selects "proxyd".
	Name string
	// Peers lists the replica's gossip partners.  Empty disables gossip (the
	// peer endpoints still serve, so a fleet can be grown one node at a time).
	Peers []Peer
	// GossipInterval is the cadence of anti-entropy exchanges when Peers is
	// non-empty.  Zero selects 2 seconds.
	GossipInterval time.Duration
}

const (
	// maxJobHistory bounds the retained job records: beyond it the oldest
	// finished jobs are pruned (queued/running jobs never are).
	maxJobHistory = 1024
	// gossipBatch bounds how many memo entries one gossip exchange may
	// carry per peer.
	gossipBatch = 256
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = parallel.Workers()
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 16
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.MaxCacheEntries <= 0 {
		c.MaxCacheEntries = 4096
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.Name == "" {
		c.Name = "proxyd"
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 2 * time.Second
	}
	return c
}

// Server is the proxyd HTTP service.  Create it with New, serve its
// Handler, and Close it to stop the job dispatcher.
type Server struct {
	cfg   Config
	mux   *apihttp.Mux
	sched *scheduler
	jobs  *jobStore

	// realMemo singleflights real-workload measurements (the implicit tuning
	// targets), keyed by workload + deployment, so repeated tune jobs do not
	// re-simulate the paper-scale workload.
	realMemo *tuner.Memo

	tuneQueue chan tuneJob
	stop      chan struct{}
	closeOnce sync.Once
	done      sync.WaitGroup

	// state is the durability manager, nil unless Config.StateDir is set.
	// ready flips once startup restore has finished; the scheduler's
	// draining flag flips when a graceful drain begins.  /readyz reports 503
	// outside the window between them while /healthz stays pure liveness.
	state *stateManager
	ready atomic.Bool

	// peers is the gossip manager, nil unless Config.Peers is set.
	peers *peerManager

	now func() time.Time
}

type tuneJob struct {
	id  string
	req client.TuneRequest
}

// New builds a Server: one prototype single-node cluster per stock
// architecture profile, a scheduler with the configured admission policy,
// and the asynchronous tune-job dispatcher (one long-lived goroutine; the
// tuning pipeline itself fans out on the shared helper pool).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	protos := make(map[string]*sim.Cluster)
	for name, profile := range arch.Profiles() {
		cluster, err := sim.NewCluster(sim.SingleNode(profile, 0))
		if err != nil {
			return nil, fmt.Errorf("serve: building %s prototype cluster: %w", name, err)
		}
		protos[name] = cluster
	}
	s := &Server{
		cfg:       cfg,
		mux:       apihttp.NewMux(cfg.RequestLog, "shard", cfg.Name),
		sched:     newScheduler(cfg.MaxInFlight, cfg.QueueDepth, cfg.MaxCacheEntries, cfg.CoalesceWindow, protos),
		jobs:      newJobStore(maxJobHistory),
		realMemo:  tuner.NewMemo(),
		tuneQueue: make(chan tuneJob, cfg.JobQueueDepth),
		stop:      make(chan struct{}),
		now:       time.Now,
	}
	s.routes()
	if cfg.StateDir != "" {
		s.state = newStateManager(cfg.StateDir, s)
		// Restore before serving: the handler is not yet registered with a
		// listener, so /readyz could only answer 503 during this window.
		s.state.restore()
		s.done.Add(1)
		go s.state.snapshotLoop(cfg.SnapshotInterval)
	}
	if len(cfg.Peers) > 0 {
		s.peers = newPeerManager(s, cfg.Peers, cfg.GossipInterval)
		s.done.Add(1)
		go s.peers.gossipLoop()
	}
	s.ready.Store(true)
	s.done.Add(1)
	go s.dispatch()
	return s, nil
}

// Drain gracefully quiesces the server for shutdown: new work is shed with
// 429 while read-only routes keep answering, then Drain waits up to
// Config.ShutdownTimeout (or ctx, whichever ends first) for in-flight
// executions and the running tune job to finish, snapshots (when a state
// directory is configured) and stops the dispatcher.  On timeout it still
// snapshots — an unfinished job is persisted as running and re-enqueued by
// the next start, which is the same recovery path a crash takes — and
// returns the timeout error.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.draining.Store(true)
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ShutdownTimeout)
	defer cancel()
	err := s.awaitIdle(ctx)
	if s.state != nil {
		if serr := s.SnapshotNow(); err == nil {
			err = serr
		}
	}
	if err == nil {
		// Everything finished and is on disk: stop the dispatcher cleanly.
		s.Close()
	} else {
		// Timed out (or the snapshot failed): release waiters without
		// blocking on the still-running job.
		s.closeOnce.Do(func() { close(s.stop) })
	}
	return err
}

// awaitIdle polls until no request holds an execution slot and no tune job
// is running, or ctx expires.
func (s *Server) awaitIdle(ctx context.Context) error {
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.sched.inFlight() == 0 && s.jobs.counts()[client.JobRunning] == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain timed out with work in flight: %w", ctx.Err())
		case <-ticker.C:
		}
	}
}

// SnapshotNow writes a snapshot immediately.  It is a no-op without a state
// directory.
func (s *Server) SnapshotNow() error {
	if s.state == nil {
		return nil
	}
	return s.state.snapshotNow()
}

// Close stops the job dispatcher and waits for an in-flight job to finish.
// Queued jobs that never ran stay in state "queued".
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.done.Wait()
}

// Handler returns the HTTP handler serving the proxyd API.  Every route runs
// behind the shared apihttp middleware, so even unmatched-route and
// wrong-method errors carry the /v1 error envelope instead of the mux's
// bare-text bodies.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the server's configuration with defaults resolved.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/archs", s.handleArchs)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/peer/entries", s.handlePeerEntries)
}

// handleRun serves POST /v1/run (body client.RunRequest).  A single-setting
// body ("setting", or neither field) is answered with a client.RunResponse;
// a batch body ("settings") with a client.RunBatchResponse carrying one
// result per setting in request order.  Setting and Settings are mutually
// exclusive and an empty Settings array is rejected (it is always a client
// bug), both with 400.  Both forms run through the one scheduler entry.
//
// Shed and 429 semantics are all-or-nothing.  Settings already completed in
// the result cache are answered without admission; a request whose
// settings are all warm never spends an admission slot.  The cold
// remainder is admitted as ONE unit and rides one trace-sharing sweep —
// when the admission queue is full, the ENTIRE request (warm results
// included) is shed with 429 + Retry-After and no partial result set is
// returned, so a retried batch is answered consistently and mostly from
// cache.  Each cold setting is memoized individually, which means partial
// cache hits on later overlapping batches skip simulation per setting.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	if _, err := apihttp.DecodeBody(w, r, &req); err != nil {
		apihttp.Fail(w, http.StatusBadRequest, fmt.Errorf("serve: %w", err))
		return
	}
	b, err := proxy.ForWorkload(req.Workload)
	if err != nil {
		apihttp.Fail(w, http.StatusBadRequest, err)
		return
	}
	batch := req.Settings != nil
	if batch && req.Setting != nil {
		apihttp.Fail(w, http.StatusBadRequest, errors.New(`serve: request must set "setting" or "settings", not both`))
		return
	}
	if batch && len(req.Settings) == 0 {
		apihttp.Fail(w, http.StatusBadRequest, errors.New(`serve: "settings" must contain at least one setting`))
		return
	}
	archName, err := s.resolveArch(req.Arch)
	if err != nil {
		apihttp.Fail(w, http.StatusBadRequest, err)
		return
	}
	// A single run works in one-element arrays on the stack, so sharing the
	// batch's slice shape costs a warm single no allocation.
	var (
		settingBuf   [1]core.Setting
		metricBuf    [1]perf.Metrics
		coalescedBuf [1]bool
	)
	settings, metrics, coalesced := settingBuf[:], metricBuf[:], coalescedBuf[:]
	var results []client.RunResult
	if batch {
		n := len(req.Settings)
		settings, metrics, coalesced, results = make([]core.Setting, n), make([]perf.Metrics, n), make([]bool, n), make([]client.RunResult, n)
	}
	for i := range settings {
		m := req.Setting
		if batch {
			m = req.Settings[i]
		}
		if settings[i], err = resolveSetting(m); err != nil {
			if batch {
				err = fmt.Errorf("serve: settings[%d]: %w", i, err)
			}
			apihttp.Fail(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := s.sched.run(r.Context(), archName, b, settings, metrics, coalesced); err != nil {
		runError(w, err)
		return
	}
	var last client.RunResult
	allCoalesced := true
	for i := range settings {
		raw, err := metrics[i].MarshalJSON()
		if err != nil {
			apihttp.Fail(w, http.StatusInternalServerError, err)
			return
		}
		last = client.RunResult{
			RuntimeSeconds: metrics[i].Runtime,
			Coalesced:      coalesced[i],
			Metrics:        raw,
		}
		if batch {
			results[i] = last
		}
		allCoalesced = allCoalesced && coalesced[i]
	}
	apihttp.Annotate(r.Context(), "coalesced", allCoalesced)
	if !batch {
		apihttp.WriteJSON(w, http.StatusOK, client.RunResponse{
			Workload:       req.Workload,
			Benchmark:      b.Name,
			Arch:           archName,
			RuntimeSeconds: last.RuntimeSeconds,
			Coalesced:      last.Coalesced,
			Metrics:        last.Metrics,
		})
		return
	}
	apihttp.WriteJSON(w, http.StatusOK, client.RunBatchResponse{
		Workload:  req.Workload,
		Benchmark: b.Name,
		Arch:      archName,
		Results:   results,
	})
}

// runError answers a failed scheduler run: 429 when it was shed, 500
// otherwise.
func runError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		apihttp.Fail(w, http.StatusTooManyRequests, err)
		return
	}
	apihttp.Fail(w, http.StatusInternalServerError, err)
}

// resolveArch applies the default architecture ("westmere") and rejects
// an architecture the scheduler has no cluster pool for.
func (s *Server) resolveArch(name string) (string, error) {
	if name == "" {
		name = "westmere"
	}
	if _, err := s.sched.pool(name); err != nil {
		return "", err
	}
	return name, nil
}

// resolveSetting applies the default setting to a nil one and validates it.
func resolveSetting(m map[string]float64) (core.Setting, error) {
	setting := core.Setting(m)
	if setting == nil {
		setting = core.DefaultSetting()
	}
	if err := setting.Validate(); err != nil {
		return nil, err
	}
	return setting, nil
}

// handleTune serves POST /v1/tune (body client.TuneRequest): it validates
// the request synchronously and queues the job, answering 202 with a
// client.TuneResponse.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req client.TuneRequest
	if _, err := apihttp.DecodeBody(w, r, &req); err != nil {
		apihttp.Fail(w, http.StatusBadRequest, fmt.Errorf("serve: %w", err))
		return
	}
	if _, err := proxy.ForWorkload(req.Workload); err != nil {
		apihttp.Fail(w, http.StatusBadRequest, err)
		return
	}
	var err error
	if req.Arch, err = s.resolveArch(req.Arch); err != nil {
		apihttp.Fail(w, http.StatusBadRequest, err)
		return
	}
	if err := validateTune(req); err != nil {
		apihttp.Fail(w, http.StatusBadRequest, err)
		return
	}
	if s.sched.draining.Load() {
		apihttp.Error(w, http.StatusTooManyRequests, client.CodeDraining, "serve: draining", apihttp.ShedRetryAfter)
		return
	}
	job := s.jobs.create(req, s.now())
	select {
	case s.tuneQueue <- tuneJob{id: job.ID, req: req}:
		apihttp.WriteJSON(w, http.StatusAccepted, client.TuneResponse{JobID: job.ID, State: job.State})
	default:
		// The client is shed with 429 and never sees the ID, so drop the
		// record instead of keeping a permanently failed job per rejection.
		s.jobs.remove(job.ID)
		apihttp.Fail(w, http.StatusTooManyRequests, errors.New("serve: tune queue full"))
	}
}

// handleJob serves GET /v1/jobs/{id} with the job's client.JobResponse.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		apihttp.Fail(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	apihttp.WriteJSON(w, http.StatusOK, job)
}

// validateTune rejects request errors synchronously — with a 400 at submit
// time — instead of surfacing them as an asynchronously failed job: a
// missing real deployment, unknown metric or parameter names (a metric typo
// would otherwise go undetected until deep inside the tuner) and
// non-positive option values.  The architecture is already resolved.
func validateTune(req client.TuneRequest) error {
	if req.Target == nil {
		if _, err := workloads.RealDeployment(req.Arch); err != nil {
			return err
		}
	}
	var m perf.Metrics
	for name := range req.Target {
		if err := m.Set(name, 0); err != nil {
			return fmt.Errorf("serve: invalid tune target: %w", err)
		}
	}
	for _, name := range req.Metrics {
		if err := m.Set(name, 0); err != nil {
			return fmt.Errorf("serve: invalid tune metric: %w", err)
		}
	}
	setting := core.Setting{}
	for _, p := range req.Parameters {
		setting[p] = 1
	}
	if err := setting.Validate(); err != nil {
		return fmt.Errorf("serve: invalid tune parameter: %w", err)
	}
	if req.Threshold < 0 || req.Threshold > 1 {
		return fmt.Errorf("serve: threshold %g outside [0, 1]", req.Threshold)
	}
	for _, f := range req.ImpactFactors {
		if f <= 0 {
			return fmt.Errorf("serve: non-positive impact factor %g", f)
		}
	}
	return nil
}

// dispatch is the single long-lived job worker: tuning jobs run one at a
// time in submission order, and each job's pipeline fans out on the shared
// helper pool (impact analysis, tree fits, feedback evaluations).
func (s *Server) dispatch() {
	defer s.done.Done()
	for {
		select {
		case <-s.stop:
			return
		case tj := <-s.tuneQueue:
			if s.sched.draining.Load() {
				// The job record stays queued; the drain snapshot persists it
				// and the next start re-enqueues it, exactly like a job that
				// never left the queue.
				continue
			}
			s.jobs.setRunning(tj.id)
			res, err := s.safeExecuteTune(tj.req)
			s.jobs.finish(tj.id, res, err, s.now())
		}
	}
}

// safeExecuteTune converts a panicking tune into a failed job: the
// dispatcher goroutine must outlive any single job, because an unrecovered
// panic there would take the whole daemon down.
func (s *Server) safeExecuteTune(req client.TuneRequest) (res *client.TuneResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: tune panicked: %v", r)
		}
	}()
	return s.executeTune(req)
}

// executeTune resolves the tuning target and runs the auto-tuner, sharing
// the scheduler's result memo so every proxy evaluation the tuner performs
// lands in the same cache /v1/run answers from (and vice versa).
func (s *Server) executeTune(req client.TuneRequest) (*client.TuneResult, error) {
	if err := faultinject.Fire("serve.tune"); err != nil {
		return nil, err
	}
	b, err := proxy.ForWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	target, err := s.resolveTarget(req)
	if err != nil {
		return nil, err
	}
	// The tuner shares the scheduler's per-arch cluster pool: its prototype
	// is only ever read (every evaluation runs on a pooled clone), sharing
	// the exact prototype keeps the tuner's memo keys byte-identical to the
	// /v1/run keys so the two paths coalesce, and repeated tune jobs reuse
	// the same recycled clusters instead of re-cloning per job.
	pool, err := s.sched.pool(req.Arch)
	if err != nil {
		return nil, err
	}
	opts := tuner.Options{
		Threshold:     req.Threshold,
		MaxIterations: req.MaxIterations,
		Metrics:       req.Metrics,
		Parameters:    req.Parameters,
		ImpactFactors: req.ImpactFactors,
	}
	res, err := tuner.TuneWithPool(pool, b, target, opts, s.sched.memo)
	if err != nil {
		return nil, err
	}
	targetJSON, err := target.MarshalJSON()
	if err != nil {
		return nil, err
	}
	proxyJSON, err := res.ProxyMetrics.MarshalJSON()
	if err != nil {
		return nil, err
	}
	worstMetric, worstAcc := res.Report.Worst()
	return &client.TuneResult{
		Setting:         res.Setting,
		Converged:       res.Converged,
		Iterations:      res.Iterations,
		Evaluations:     res.Evaluations,
		MemoHits:        res.MemoHits,
		AverageAccuracy: res.Report.Average(),
		WorstAccuracy:   worstAcc,
		WorstMetric:     worstMetric,
		PerMetric:       res.Report.PerMetric,
		Target:          targetJSON,
		ProxyMetrics:    proxyJSON,
	}, nil
}

// resolveTarget returns the metric vector the tune must match: the explicit
// request target if given, otherwise the real workload measured on the
// paper's deployment of the requested architecture (singleflighted in
// realMemo so the paper-scale simulation runs at most once per pair).
func (s *Server) resolveTarget(req client.TuneRequest) (perf.Metrics, error) {
	if req.Target != nil {
		var m perf.Metrics
		for name, v := range req.Target {
			if err := m.Set(name, v); err != nil {
				return perf.Metrics{}, err
			}
		}
		return m, nil
	}
	d, err := workloads.RealDeployment(req.Arch)
	if err != nil {
		return perf.Metrics{}, err
	}
	key := fmt.Sprintf("real|%s|%+v", req.Workload, d.Cluster)
	m, _, err := s.realMemo.Measure(key, func() (perf.Metrics, error) {
		spec, err := d.Workload(req.Workload)
		if err != nil {
			return perf.Metrics{}, err
		}
		cluster, err := sim.NewCluster(d.Cluster)
		if err != nil {
			return perf.Metrics{}, err
		}
		if err := spec.Run(cluster); err != nil {
			return perf.Metrics{}, err
		}
		return cluster.Report(spec.Name).Metrics, nil
	})
	return m, err
}

// handleWorkloads serves GET /v1/workloads: one client.WorkloadInfo per
// servable proxy benchmark.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := proxy.All()
	out := make([]client.WorkloadInfo, len(all))
	for i, b := range all {
		out[i] = client.WorkloadInfo{Workload: b.Workload, Benchmark: b.Name, Motifs: b.Motifs()}
	}
	apihttp.WriteJSON(w, http.StatusOK, out)
}

// handleArchs serves GET /v1/archs: one client.ArchInfo per architecture
// profile, sorted by name.
func (s *Server) handleArchs(w http.ResponseWriter, r *http.Request) {
	profiles := arch.Profiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]client.ArchInfo, len(names))
	for i, name := range names {
		out[i] = client.ArchInfo{Arch: name, Profile: profiles[name].Name}
	}
	apihttp.WriteJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.  It
// deliberately never looks at restore or drain state — an orchestrator must
// not kill a pod for being mid-drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	apihttp.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when startup restore has completed and
// the server is not draining, 503 otherwise so load balancers stop routing
// new work while the daemon is warming up or shutting down.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		apihttp.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "restoring"})
	case s.sched.draining.Load():
		apihttp.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	default:
		apihttp.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// handleMetrics renders the Prometheus-style exposition: request counts per
// route, the HTTP and scheduler in-flight gauges, run cache/shed counters
// and job states.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mux.WriteMetrics(w, "proxyd")
	fmt.Fprintf(w, "proxyd_run_executed_total %d\n", s.sched.executed.Load())
	fmt.Fprintf(w, "proxyd_run_coalesced_total %d\n", s.sched.coalesced.Load())
	fmt.Fprintf(w, "proxyd_run_shed_total %d\n", s.sched.shed.Load())
	fmt.Fprintf(w, "proxyd_trace_groups_total{outcome=\"simulated\"} %d\n", s.sched.simulatedGroups.Load())
	fmt.Fprintf(w, "proxyd_trace_groups_total{outcome=\"resumed\"} %d\n", s.sched.resumedGroups.Load())
	fmt.Fprintf(w, "proxyd_sched_in_flight %d\n", s.sched.inFlight())
	fmt.Fprintf(w, "proxyd_result_cache_entries %d\n", s.sched.memo.Size())
	fmt.Fprintf(w, "proxyd_cache_evictions_total %d\n", s.sched.memo.Evictions())
	fmt.Fprintf(w, "proxyd_coalesce_window_batches_total %d\n", s.sched.windowBatches.Load())
	s.sched.laneHist.write(w, "proxyd_coalesce_lanes_per_sweep")
	s.sched.waitHist.write(w, "proxyd_coalesce_window_wait_seconds")
	counts := s.jobs.counts()
	for _, state := range []string{client.JobQueued, client.JobRunning, client.JobDone, client.JobFailed} {
		fmt.Fprintf(w, "proxyd_jobs{state=%q} %d\n", state, counts[state])
	}
	fmt.Fprintf(w, "proxyd_ready %d\n", boolGauge(s.ready.Load()))
	fmt.Fprintf(w, "proxyd_draining %d\n", boolGauge(s.sched.draining.Load()))
	s.writeGossipMetrics(w)
	s.writeDurabilityMetrics(w)
}

// writeDurabilityMetrics renders the snapshot/restore gauges.  They are
// emitted even without a state directory (as zeros, with outcome "none") so
// scrapers see a stable exposition either way.
func (s *Server) writeDurabilityMetrics(w http.ResponseWriter) {
	outcome := RestoreNone
	var restored, invalid, reenqueued, writeErrors, lastSize int64
	var age float64
	if s.state != nil {
		outcome = s.state.outcome()
		restored = s.state.restoredEntries.Load()
		invalid = s.state.invalidEntries.Load()
		reenqueued = s.state.reenqueuedJobs.Load()
		writeErrors = s.state.writeErrors.Load()
		lastSize = s.state.lastSnapshotSize.Load()
		if unix := s.state.lastSnapshotUnix.Load(); unix > 0 {
			age = s.now().Sub(time.Unix(unix, 0)).Seconds()
		}
	}
	for _, o := range []string{RestoreNone, RestoreOK, RestoreCorrupt, RestoreVersionMismatch} {
		fmt.Fprintf(w, "proxyd_restore_outcome{outcome=%q} %d\n", o, boolGauge(o == outcome))
	}
	fmt.Fprintf(w, "proxyd_restored_entries_total %d\n", restored)
	fmt.Fprintf(w, "proxyd_restore_invalid_entries_total %d\n", invalid)
	fmt.Fprintf(w, "proxyd_jobs_reenqueued_total %d\n", reenqueued)
	fmt.Fprintf(w, "proxyd_snapshot_write_errors_total %d\n", writeErrors)
	fmt.Fprintf(w, "proxyd_snapshot_last_size_bytes %d\n", lastSize)
	fmt.Fprintf(w, "proxyd_snapshot_last_age_seconds %g\n", age)
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

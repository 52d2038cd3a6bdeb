package client

import (
	"encoding/json"
	"time"
)

// RunRequest is the body of POST /v1/run.  Exactly one of Setting (a single
// evaluation, nil selects the server's default setting) or Settings (a batch
// answered in request order) may be used; supplying both is a bad_request.
type RunRequest struct {
	// Workload selects the proxy benchmark by real-workload short name
	// (one of the GET /v1/workloads entries).
	Workload string `json:"workload"`
	// Arch selects the architecture profile short name; empty selects the
	// server default ("westmere").
	Arch string `json:"arch,omitempty"`
	// Setting holds multiplicative factors over the proxy's base parameters
	// (e.g. {"dataSize": 1.5}); omitted parameters default to 1.
	Setting map[string]float64 `json:"setting,omitempty"`
	// Settings submits a batch: one entry per setting to evaluate, mutually
	// exclusive with Setting.  The response is a RunBatchResponse with one
	// result per setting in request order.
	Settings []map[string]float64 `json:"settings,omitempty"`
}

// RunResponse is the body of a successful single-setting POST /v1/run.
type RunResponse struct {
	// Workload and Benchmark identify the executed proxy; Arch the profile.
	Workload  string `json:"workload"`
	Benchmark string `json:"benchmark"`
	Arch      string `json:"arch"`
	// RuntimeSeconds is the proxy's virtual execution time.
	RuntimeSeconds float64 `json:"runtime_seconds"`
	// Coalesced reports whether the result came from the server's result
	// cache (or an in-flight identical request) instead of a fresh simulation.
	Coalesced bool `json:"coalesced"`
	// Metrics is the full metric vector, kept as raw JSON so relaying a
	// response never perturbs the server's canonical, byte-deterministic
	// encoding.  Decode it with MetricValues.
	Metrics json.RawMessage `json:"metrics"`
}

// MetricValues decodes the raw metric vector into metric-name → value form.
func (r *RunResponse) MetricValues() (map[string]float64, error) {
	return decodeMetricMap(r.Metrics)
}

// RunResult is one per-setting outcome inside a RunBatchResponse.
type RunResult struct {
	// RuntimeSeconds is the proxy's virtual execution time under this setting.
	RuntimeSeconds float64 `json:"runtime_seconds"`
	// Coalesced reports whether this setting was served from the result cache
	// (or batch-internal deduplication) instead of a fresh simulation.
	Coalesced bool `json:"coalesced"`
	// Metrics is the full metric vector as raw JSON; see RunResponse.Metrics.
	Metrics json.RawMessage `json:"metrics"`
}

// MetricValues decodes the raw metric vector into metric-name → value form.
func (r *RunResult) MetricValues() (map[string]float64, error) {
	return decodeMetricMap(r.Metrics)
}

// RunBatchResponse is the body of a successful batched POST /v1/run: one
// RunResult per submitted setting, in request order.
type RunBatchResponse struct {
	// Workload and Benchmark identify the executed proxy; Arch the profile.
	Workload  string `json:"workload"`
	Benchmark string `json:"benchmark"`
	Arch      string `json:"arch"`
	// Results holds the per-setting outcomes in request order.
	Results []RunResult `json:"results"`
}

// TuneRequest is the body of POST /v1/tune: qualify the workload's proxy on
// one architecture, asynchronously.
type TuneRequest struct {
	// Workload and Arch select the proxy and profile like RunRequest.
	Workload string `json:"workload"`
	Arch     string `json:"arch,omitempty"`
	// Threshold, MaxIterations, Metrics, Parameters and ImpactFactors map
	// onto the server's tuner options; zero values select the defaults.
	Threshold     float64   `json:"threshold,omitempty"`
	MaxIterations int       `json:"max_iterations,omitempty"`
	Metrics       []string  `json:"metrics,omitempty"`
	Parameters    []string  `json:"parameters,omitempty"`
	ImpactFactors []float64 `json:"impact_factors,omitempty"`
	// Target optionally supplies the real workload's metric vector to match;
	// omitted, the server measures the real workload itself.
	Target map[string]float64 `json:"target,omitempty"`
}

// TuneResponse is the body of a successful POST /v1/tune (202 Accepted).
type TuneResponse struct {
	// JobID polls as GET /v1/jobs/{id}.
	JobID string `json:"job_id"`
	// State is the job's initial state ("queued").
	State string `json:"state"`
}

// TuneResult is the outcome of a done tuning job.
type TuneResult struct {
	// Setting is the qualified parameter setting (factors over the base).
	Setting map[string]float64 `json:"setting"`
	// Converged reports whether every metric deviation met the threshold.
	Converged bool `json:"converged"`
	// Iterations, Evaluations and MemoHits summarise the tuning effort.
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`
	MemoHits    int `json:"memo_hits"`
	// AverageAccuracy and WorstAccuracy/WorstMetric summarise the report.
	AverageAccuracy float64 `json:"average_accuracy"`
	WorstAccuracy   float64 `json:"worst_accuracy"`
	WorstMetric     string  `json:"worst_metric"`
	// PerMetric is the per-metric accuracy of the final setting.
	PerMetric map[string]float64 `json:"per_metric_accuracy"`
	// Target and ProxyMetrics are the matched and achieved metric vectors,
	// kept as raw JSON like RunResponse.Metrics so relaying a job body never
	// perturbs the server's canonical metric order.
	Target       json.RawMessage `json:"target"`
	ProxyMetrics json.RawMessage `json:"proxy_metrics"`
}

// Job lifecycle states as reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobResponse is the body of GET /v1/jobs/{id}: one asynchronous
// qualification job and, once done, its result.
type JobResponse struct {
	// ID is the job identifier (through a router it carries a "shard." prefix
	// naming the replica that owns the job).
	ID string `json:"id"`
	// State is one of JobQueued, JobRunning, JobDone, JobFailed.
	State string `json:"state"`
	// Workload and Arch echo the tuning request.
	Workload string `json:"workload"`
	Arch     string `json:"arch"`
	// Created and Finished are wall-clock timestamps (Finished is zero until
	// the job completes).
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitzero"`
	// Error holds the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result holds the tuning outcome of a done job.
	Result *TuneResult `json:"result,omitempty"`
}

// IsFinished reports whether the job has left the queued/running states.
func (j *JobResponse) IsFinished() bool {
	return j.State == JobDone || j.State == JobFailed
}

// WorkloadInfo describes one servable proxy benchmark (GET /v1/workloads).
type WorkloadInfo struct {
	// Workload is the short name accepted by /v1/run and /v1/tune.
	Workload string `json:"workload"`
	// Benchmark is the proxy benchmark's display name.
	Benchmark string `json:"benchmark"`
	// Motifs lists the distinct data-motif implementations of the DAG.
	Motifs []string `json:"motifs"`
}

// ArchInfo describes one servable architecture profile (GET /v1/archs).
type ArchInfo struct {
	// Arch is the short name accepted by /v1/run and /v1/tune.
	Arch string `json:"arch"`
	// Profile is the processor profile's display name.
	Profile string `json:"profile"`
}

// Cluster roles as reported by GET /v1/cluster.
const (
	// RoleReplica is a single proxyd process (its peers are gossip partners).
	RoleReplica = "replica"
	// RoleRouter is a proxyrouter fronting a fleet (its peers are the shards
	// it forwards to, each with its consistent-hash keyspace share).
	RoleRouter = "router"
)

// PeerInfo describes one cluster member as seen by the responding process.
type PeerInfo struct {
	// Name is the member's configured shard name.
	Name string `json:"name"`
	// URL is the member's base URL (empty for the responding process itself).
	URL string `json:"url,omitempty"`
	// Healthy reports the responder's current view of the member.
	Healthy bool `json:"healthy"`
	// KeyspaceShare is the fraction of the consistent-hash keyspace this
	// member owns (router responses only; 0 elsewhere).
	KeyspaceShare float64 `json:"keyspace_share,omitempty"`
	// EntriesSent and EntriesInstalled count gossip traffic with this peer
	// (replica responses only): memo entries pushed to it, and entries from
	// it that the responder installed.
	EntriesSent      int64 `json:"entries_sent,omitempty"`
	EntriesInstalled int64 `json:"entries_installed,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: the responding process's
// identity and its view of the fleet.
type ClusterResponse struct {
	// Self is the responding process's shard name.
	Self string `json:"self"`
	// Role is RoleReplica or RoleRouter.
	Role string `json:"role"`
	// Peers lists the other members this process knows about, sorted by name.
	Peers []PeerInfo `json:"peers"`
}

// PeerExchangeResponse is the body of a successful POST /v1/peer/entries:
// how the receiver disposed of the pushed memo entries.
type PeerExchangeResponse struct {
	// Received is the number of entries carried by the request.
	Received int `json:"received"`
	// Installed is how many were new and passed validation.
	Installed int `json:"installed"`
	// Skipped is how many were already present (live entries are never
	// overwritten) or failed validation.
	Skipped int `json:"skipped"`
}

// decodeMetricMap decodes a raw metric vector into a name → value map.
func decodeMetricMap(raw json.RawMessage) (map[string]float64, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Command fleetcheck drives a proxyd deployment — a single replica or a
// proxyrouter-fronted fleet — through the typed pkg/client and asserts the
// serving contracts hold end to end.  It is what CI boots real binaries
// against instead of hand-rolled curl pipelines.
//
// Modes:
//
//	smoke     liveness, readiness, listings, one run, and cache coalescing
//	          on the repeat — the minimum a freshly booted target must do.
//	mix       a cold batch spanning -n trace groups, two weight lanes each,
//	          followed by warm single runs and a warm repeat batch: request
//	          order, all-warm repeats, and (with -backends) the fleet-wide
//	          invariants that each trace group is executed exactly once and
//	          that the groups, one shape at one task count, simulate one
//	          trace; finishes with a fast tune job polled to completion.
//	postkill  availability after a replica was killed: the same settings
//	          must still answer without any 5xx, and with -backends the
//	          survivors must answer them from gossip-warmed caches without
//	          executing a single new simulation.
//
// Usage:
//
//	fleetcheck -url http://127.0.0.1:8090 -mode mix \
//	           [-backends "s0=http://...,s1=http://..."] [-n 6] [-workload terasort]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/proxy"
	"dataproxy/pkg/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetcheck: ")
	url := flag.String("url", "http://127.0.0.1:8090", "target base URL (router or single replica)")
	mode := flag.String("mode", "smoke", "check mode: smoke, mix or postkill")
	backendsFlag := flag.String("backends", "", "optional name=url list of replicas for fleet-wide metric assertions")
	n := flag.Int("n", 6, "trace groups in the mix/postkill batch")
	workload := flag.String("workload", "terasort", "workload to exercise")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	backends, err := parseBackends(*backendsFlag)
	if err != nil {
		log.Fatal(err)
	}
	c := client.New(*url)
	switch *mode {
	case "smoke":
		err = smoke(ctx, c, *workload)
	case "mix":
		err = mix(ctx, c, backends, *workload, *n)
	case "postkill":
		err = postkill(ctx, c, backends, *workload, *n)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s: ok", *mode)
}

// namedBackend pairs a replica's shard name with its base URL.
type namedBackend struct {
	name string
	url  string
}

// parseBackends parses the -backends flag: comma-separated name=url pairs.
func parseBackends(spec string) ([]namedBackend, error) {
	if spec == "" {
		return nil, nil
	}
	var out []namedBackend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-backends entry %q is not name=url", part)
		}
		out = append(out, namedBackend{name: name, url: strings.TrimRight(url, "/")})
	}
	return out, nil
}

// mixSettings builds n trace groups of two lanes each plus one deliberate
// duplicate of the first setting, so every mix exercises batch-internal
// deduplication too.  The groups vary chunkSize, which gives each its own
// trace key but keeps one trace shape and task count, and the chunk sizes
// chunk no share of the workload's sample.  So the fleet routes every group
// to the shape's one owner, whose sweep simulates the first group and
// accounts the others from its trace (ARCHITECTURE contracts 7 and 10).
// The lanes of a group differ only in weight, so they share one trace.
func mixSettings(n int) []map[string]float64 {
	settings := make([]map[string]float64, 0, 2*n+1)
	for i := 0; i < n; i++ {
		chunk := 1 + float64(i)*0.1
		settings = append(settings,
			map[string]float64{"chunkSize": chunk},
			map[string]float64{"chunkSize": chunk, "weight": 1.5})
	}
	return append(settings, map[string]float64{"chunkSize": 1})
}

// traceGroups counts the distinct trace groups among settings, the unit
// proxyd_run_executed_total counts.
func traceGroups(workload string, settings []map[string]float64) (int, error) {
	b, err := proxy.ForWorkload(workload)
	if err != nil {
		return 0, err
	}
	keys := map[string]bool{}
	for _, s := range settings {
		keys[b.TraceKey(core.Setting(s))] = true
	}
	return len(keys), nil
}

// executedMetric and simulatedMetric are the replica counters the fleet
// invariants read: trace groups executed per sweep, and trace groups
// simulated from the input stage.
const (
	executedMetric  = "proxyd_run_executed_total"
	simulatedMetric = `proxyd_trace_groups_total{outcome="simulated"}`
)

// metricTotals sums each named counter across the given replicas.
func metricTotals(ctx context.Context, backends []namedBackend, names ...string) ([]float64, error) {
	sums := make([]float64, len(names))
	for _, b := range backends {
		text, err := client.New(b.url).MetricsText(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading %s metrics: %w", b.name, err)
		}
		for i, name := range names {
			v, ok := client.ParseMetric(text, name)
			if !ok {
				return nil, fmt.Errorf("%s metrics lack %s", b.name, name)
			}
			sums[i] += v
		}
	}
	return sums, nil
}

// smoke checks the minimum contract of a freshly booted target.
func smoke(ctx context.Context, c *client.Client, workload string) error {
	if err := c.Healthy(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if err := c.Ready(ctx); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	wl, err := c.Workloads(ctx)
	if err != nil || len(wl) == 0 {
		return fmt.Errorf("workloads: %d entries, err %v", len(wl), err)
	}
	run, err := c.Run(ctx, client.RunRequest{Workload: workload})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if run.RuntimeSeconds <= 0 {
		return fmt.Errorf("run returned non-positive runtime %g", run.RuntimeSeconds)
	}
	again, err := c.Run(ctx, client.RunRequest{Workload: workload})
	if err != nil {
		return fmt.Errorf("repeat run: %w", err)
	}
	if !again.Coalesced || again.RuntimeSeconds != run.RuntimeSeconds {
		return fmt.Errorf("repeat run not coalesced (coalesced=%v, %g vs %g)",
			again.Coalesced, again.RuntimeSeconds, run.RuntimeSeconds)
	}
	// Misdirected requests must come back as typed envelopes, not raw text.
	if _, err := c.Run(ctx, client.RunRequest{Workload: "no-such-workload"}); err != nil {
		if ae, ok := client.AsAPIError(err); !ok || ae.Code != client.CodeBadRequest {
			return fmt.Errorf("unknown workload should be bad_request, got %v", err)
		}
	} else {
		return fmt.Errorf("unknown workload was accepted")
	}
	if _, err := c.Job(ctx, "nosuch.job-0"); !client.IsNotFound(err) {
		return fmt.Errorf("unknown job should be not_found, got %v", err)
	}
	return nil
}

// mix drives the cold/warm workload mix and, when backends are known,
// asserts the fleet executed each trace group of the mix exactly once and
// simulated one trace for all of them.  Every group holds a lane no
// earlier check warms, so it is cold here.
func mix(ctx context.Context, c *client.Client, backends []namedBackend, workload string, n int) error {
	settings := mixSettings(n)
	var before []float64
	var err error
	if len(backends) > 0 {
		if before, err = metricTotals(ctx, backends, executedMetric, simulatedMetric); err != nil {
			return err
		}
	}
	batch, err := c.RunBatch(ctx, client.RunRequest{Workload: workload, Settings: settings})
	if err != nil {
		return fmt.Errorf("cold batch: %w", err)
	}
	if len(batch.Results) != len(settings) {
		return fmt.Errorf("cold batch returned %d results for %d settings", len(batch.Results), len(settings))
	}
	if last := batch.Results[len(settings)-1]; !last.Coalesced {
		return fmt.Errorf("duplicate setting inside the batch was re-simulated")
	}
	// Warm singles pin request order: position i answers settings[i].
	for i, s := range settings {
		single, err := c.Run(ctx, client.RunRequest{Workload: workload, Setting: s})
		if err != nil {
			return fmt.Errorf("warm single %d: %w", i, err)
		}
		if !single.Coalesced {
			return fmt.Errorf("warm single %d was re-simulated", i)
		}
		if single.RuntimeSeconds != batch.Results[i].RuntimeSeconds {
			return fmt.Errorf("batch order broken at %d: batch %g vs single %g",
				i, batch.Results[i].RuntimeSeconds, single.RuntimeSeconds)
		}
	}
	again, err := c.RunBatch(ctx, client.RunRequest{Workload: workload, Settings: settings})
	if err != nil {
		return fmt.Errorf("warm batch: %w", err)
	}
	for i, res := range again.Results {
		if !res.Coalesced {
			return fmt.Errorf("warm batch result %d was re-simulated", i)
		}
	}
	if len(backends) > 0 {
		after, err := metricTotals(ctx, backends, executedMetric, simulatedMetric)
		if err != nil {
			return err
		}
		groups, err := traceGroups(workload, settings)
		if err != nil {
			return err
		}
		if executed := after[0] - before[0]; executed != float64(groups) {
			return fmt.Errorf("fleet executed %g simulations for %d trace groups (duplicate work)", executed, groups)
		}
		if simulated := after[1] - before[1]; simulated != 1 {
			return fmt.Errorf("fleet simulated %g trace groups for %d chunk sizes of one shape and task count, want 1 (the shape's groups did not meet on one replica)", simulated, n)
		}
	}
	// A fast self-targeted tune job must route, run and converge.
	mv, err := batch.Results[0].MetricValues()
	if err != nil {
		return err
	}
	tr, err := c.Tune(ctx, client.TuneRequest{
		Workload:      workload,
		MaxIterations: 1,
		Metrics:       []string{"IPC", "MIPS"},
		Parameters:    []string{"dataSize"},
		ImpactFactors: []float64{1.25},
		Target:        map[string]float64{"IPC": mv["IPC"], "MIPS": mv["MIPS"]},
	})
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	job, err := c.PollJob(ctx, tr.JobID, 100*time.Millisecond)
	if err != nil {
		return fmt.Errorf("polling %s: %w", tr.JobID, err)
	}
	if job.State != client.JobDone || job.Result == nil || !job.Result.Converged {
		return fmt.Errorf("tune job %s finished %s (result %+v)", tr.JobID, job.State, job.Result)
	}
	fmt.Fprintf(os.Stderr, "fleetcheck: mix: %d settings, tune job %s converged\n", len(settings), tr.JobID)
	return nil
}

// postkill asserts availability after a replica died: the whole mix still
// answers with no 5xx, and the survivors (when given) execute zero new
// simulations because gossip already spread the dead shard's entries.
func postkill(ctx context.Context, c *client.Client, backends []namedBackend, workload string, n int) error {
	if err := c.Ready(ctx); err != nil {
		return fmt.Errorf("router should stay ready with survivors: %w", err)
	}
	var before []float64
	var err error
	if len(backends) > 0 {
		if before, err = metricTotals(ctx, backends, executedMetric); err != nil {
			return err
		}
	}
	settings := mixSettings(n)
	batch, err := c.RunBatch(ctx, client.RunRequest{Workload: workload, Settings: settings})
	if err != nil {
		return fmt.Errorf("post-kill batch: %w", err)
	}
	if len(batch.Results) != len(settings) {
		return fmt.Errorf("post-kill batch returned %d results for %d settings", len(batch.Results), len(settings))
	}
	for i, s := range settings {
		single, err := c.Run(ctx, client.RunRequest{Workload: workload, Setting: s})
		if err != nil {
			return fmt.Errorf("post-kill single %d: %w", i, err)
		}
		if single.RuntimeSeconds != batch.Results[i].RuntimeSeconds {
			return fmt.Errorf("post-kill order broken at %d", i)
		}
	}
	if len(backends) > 0 {
		after, err := metricTotals(ctx, backends, executedMetric)
		if err != nil {
			return err
		}
		if after[0] != before[0] {
			return fmt.Errorf("survivors executed %g new simulations; gossip should have made every key warm", after[0]-before[0])
		}
	}
	return nil
}

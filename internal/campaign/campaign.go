// Package campaign implements multi-seed randomized simulation campaigns —
// the qualification harness that turns the repository's determinism and
// model-invariant contracts into continuously exercised properties, in the
// style of the Cosmos-SDK simulation discipline (sims.mk: nondeterminism,
// import/export, multi-seed invariant runs).
//
// A campaign instance is generated entirely up front from one seed by a
// deterministic splitmix64 PRNG (never the global math/rand): a sequence of
// steps that either evaluate a proxy benchmark under randomized tuning
// settings through the measurement memo, or drive randomized multi-task
// traces on persistent per-profile clusters.  Because the instance is a
// pure function of the seed and the runner evaluates it with canonical
// ordering everywhere (sorted memo exports, slice-ordered records, never
// ranging over a map on a result path), the same seed must produce a
// byte-identical campaign report at any host worker count and across
// process invocations — which is exactly what VerifyDeterminism checks and
// CI enforces.
//
// Every step passes a model-invariant gate: metric vectors must satisfy
// perf.Metrics.Validate (finite, non-negative, ratio metrics clamped to
// [0,1]), trace reports must satisfy perf.CheckReport (per-level hit+miss
// conservation), cumulative per-node counters and the cluster clock must
// grow monotonically across trace steps, and the memo's hit/evaluation
// bookkeeping must be exact (a setting is fresh if and only if its key has
// never been measured).  Mid-campaign state — memo entries, campaign
// cursor, per-profile cluster checkpoints — exports through the
// internal/snapshot codec and restores into a fresh process that continues
// to a bit-identical final report (VerifyImportExport).
package campaign

import (
	"fmt"

	"dataproxy/internal/core"
)

// rng is a splitmix64 PRNG: tiny, fast, and — unlike the global math/rand
// — a pure function of its seed, so instance generation is reproducible by
// construction.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// next returns the next 64 random bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n <= 0 returns 0.
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Config parameterizes one campaign.  The zero value of every field except
// Seed selects a sensible default (withDefaults), so Config{Seed: 1} is a
// runnable short campaign.
type Config struct {
	// Seed is the campaign seed; the entire instance derives from it.
	Seed uint64 `json:"seed"`
	// Steps is the number of campaign steps (default 6).
	Steps int `json:"steps"`
	// Workloads are the proxy workload short names eval steps draw from
	// (default the big-data trio: terasort, kmeans, pagerank).
	Workloads []string `json:"workloads"`
	// Profiles are the architecture short names ("westmere", "haswell")
	// steps draw from (default both).
	Profiles []string `json:"profiles"`
	// MaxSettings bounds the number of settings per eval step (default 3).
	MaxSettings int `json:"max_settings"`
	// TraceTasks is the task count of each trace step (default 4).
	TraceTasks int `json:"trace_tasks"`
	// TraceOps is the operation count of each trace task (default 150).
	TraceOps int `json:"trace_ops"`
}

// withDefaults fills zero fields with the default campaign shape.
func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 6
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"terasort", "kmeans", "pagerank"}
	}
	if len(c.Profiles) == 0 {
		c.Profiles = []string{"westmere", "haswell"}
	}
	if c.MaxSettings <= 0 {
		c.MaxSettings = 3
	}
	if c.TraceTasks <= 0 {
		c.TraceTasks = 4
	}
	if c.TraceOps <= 0 {
		c.TraceOps = 150
	}
	return c
}

// StepKind distinguishes the two campaign step shapes.
type StepKind string

// The campaign step kinds: proxy-benchmark evaluation through the memo,
// and randomized trace execution on the persistent per-profile clusters.
const (
	StepEval  StepKind = "eval"
	StepTrace StepKind = "trace"
)

// Step is one generated campaign step.
type Step struct {
	// Kind selects the step shape.
	Kind StepKind
	// Profile is the architecture short name the step runs on.
	Profile string
	// Workload is the proxy workload evaluated by an eval step.
	Workload string
	// Settings are the tuning settings of an eval step.
	Settings []core.Setting
	// TraceSeed seeds a trace step's operation stream.
	TraceSeed uint64
	// Tasks is a trace step's task count.
	Tasks int
	// Ops is the per-task operation count of a trace step.
	Ops int
}

// Instance is a fully generated campaign: a pure function of the config
// (GenerateInstance), evaluated by a Runner.
type Instance struct {
	// Seed is the generating seed.
	Seed uint64
	// Steps are the generated steps in execution order.
	Steps []Step
}

// settingGrid is the factor grid settings draw from: close enough to 1
// that every proxy stays fast, far enough that traces genuinely differ.
var settingGrid = []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5}

// GenerateInstance expands a config into its campaign instance.  The
// expansion consumes the splitmix64 stream in a fixed order, so the same
// config always yields the same instance, independent of host, process or
// worker count.
func GenerateInstance(cfg Config) Instance {
	cfg = cfg.withDefaults()
	r := newRNG(cfg.Seed)
	inst := Instance{Seed: cfg.Seed}
	// Previously drawn settings per (workload, profile), reused with some
	// probability so campaigns exercise warm memo paths.  Indexed lookups
	// only — the map is never ranged.
	prior := make(map[string][]core.Setting)
	for i := 0; i < cfg.Steps; i++ {
		profile := cfg.Profiles[r.intn(len(cfg.Profiles))]
		if r.intn(2) == 0 {
			inst.Steps = append(inst.Steps, Step{
				Kind:      StepTrace,
				Profile:   profile,
				TraceSeed: r.next(),
				Tasks:     cfg.TraceTasks,
				Ops:       cfg.TraceOps,
			})
			continue
		}
		workload := cfg.Workloads[r.intn(len(cfg.Workloads))]
		key := workload + "|" + profile
		n := 1 + r.intn(cfg.MaxSettings)
		settings := make([]core.Setting, 0, n)
		for j := 0; j < n; j++ {
			if seen := prior[key]; len(seen) > 0 && r.intn(4) == 0 {
				settings = append(settings, seen[r.intn(len(seen))])
				continue
			}
			s := randomSetting(r)
			settings = append(settings, s)
			prior[key] = append(prior[key], s)
		}
		inst.Steps = append(inst.Steps, Step{
			Kind:     StepEval,
			Profile:  profile,
			Workload: workload,
			Settings: settings,
		})
	}
	return inst
}

// randomSetting draws one setting: one to three parameters from the
// canonical name list with factors off the grid.
func randomSetting(r *rng) core.Setting {
	s := core.Setting{}
	n := 1 + r.intn(3)
	for j := 0; j < n; j++ {
		name := core.ParameterNames[r.intn(len(core.ParameterNames))]
		s[name] = settingGrid[r.intn(len(settingGrid))]
	}
	return s
}

// Validate rejects configs the runner cannot execute: unknown profiles or
// workloads are caught here, up front, rather than mid-campaign.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, p := range c.Profiles {
		if _, _, err := profileConfigs(p); err != nil {
			return err
		}
	}
	for _, w := range c.Workloads {
		if _, err := benchmarkFor(w); err != nil {
			return err
		}
	}
	if c.Steps > 1<<20 {
		return fmt.Errorf("campaign: %d steps is beyond any sane campaign", c.Steps)
	}
	return nil
}

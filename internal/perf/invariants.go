package perf

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// ratioMetrics names the metrics whose values must lie in [0, 1]: the
// instruction-mix fractions, the branch miss ratio and the cache hit
// ratios.  Everything else (runtime, IPC, MIPS, bandwidths) must merely be
// finite and non-negative.
var ratioMetrics = map[string]bool{
	"load_ratio":   true,
	"store_ratio":  true,
	"branch_ratio": true,
	"int_ratio":    true,
	"float_ratio":  true,
	"branch_miss":  true,
	"L1I_hit":      true,
	"L1D_hit":      true,
	"L2_hit":       true,
	"L3_hit":       true,
}

// Validate returns an error when the metric vector violates its model
// invariants: every value must be finite and non-negative, and ratio-type
// metrics (instruction mix, branch miss, cache hit ratios) must lie in
// [0, 1] — the bounds the extrapolation clamp (Counters.ClampMisses)
// guarantees for freshly simulated vectors.  It is run on every entry
// restored from a snapshot (a checksum proves the bytes survived the disk,
// not that they were sane when written) and, behind the invariant-check
// debug flag, on every fresh measurement of a campaign.
func (m Metrics) Validate() error {
	v := m.Vector()
	for i, name := range MetricNames {
		val := v[i]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("perf: metric %s is not finite (%v)", name, val)
		}
		if val < 0 {
			return fmt.Errorf("perf: metric %s is negative (%v)", name, val)
		}
		if ratioMetrics[name] && val > 1 {
			return fmt.Errorf("perf: ratio metric %s exceeds 1 (%v)", name, val)
		}
	}
	return nil
}

// DecodeMetrics decodes a metric vector that arrives from outside the
// process, a snapshot's memo entry or a peer's gossiped one, and re-proves
// its invariants (Validate) before the caller may install it: a snapshot
// is input, not truth.  It is the one decode-and-validate step of every
// restored entry.
func DecodeMetrics(data []byte) (Metrics, error) {
	var m Metrics
	if err := m.UnmarshalJSON(data); err != nil {
		return Metrics{}, err
	}
	if err := m.Validate(); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// invariantChecks gates the per-measurement invariant pass of CheckReport.
// It is off by default — the checks cost a handful of comparisons per
// simulation, but campaigns run millions — and is enabled for a debugging
// or qualification campaign via SetInvariantChecks or the
// DATAPROXY_INVARIANTS environment variable.
var invariantChecks atomic.Bool

func init() {
	if os.Getenv("DATAPROXY_INVARIANTS") != "" {
		invariantChecks.Store(true)
	}
}

// SetInvariantChecks toggles the per-measurement invariant checks
// (CheckReport) run by the execution layer on every fresh simulation.
func SetInvariantChecks(on bool) { invariantChecks.Store(on) }

// InvariantChecksEnabled reports whether per-measurement invariant checks
// are on (SetInvariantChecks or DATAPROXY_INVARIANTS).
func InvariantChecksEnabled() bool { return invariantChecks.Load() }

// CheckReport validates one measurement against the model invariants the
// simulation engine must uphold: hit+miss conservation on every counter
// pair (misses never exceed accesses — Counters.Validate), counter/metric
// consistency on instruction totals, and the extrapolation clamp bounds on
// the derived metric vector (Metrics.Validate).  The execution layer calls
// it on every fresh report when InvariantChecksEnabled, and the serving
// layer calls it on every snapshot-restored entry unconditionally.
func CheckReport(c Counters, m Metrics) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Cycles == 0 && c.Instructions() > 0 {
		return fmt.Errorf("perf: %d instructions retired in zero cycles", c.Instructions())
	}
	return m.Validate()
}

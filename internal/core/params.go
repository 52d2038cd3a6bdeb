// Package core implements the paper's primary contribution: the data
// motif-based proxy benchmark.  A proxy benchmark is a DAG-like combination
// of data motif implementations — nodes are original or intermediate data
// sets, edges are motifs with weights — whose tunable parameters (Table I)
// are adjusted by the auto-tuner until the proxy's system and
// micro-architectural behaviour matches the real workload it mimics.
package core

import (
	"fmt"
	"math"
	"sort"
)

// Params is the part of Table I's tunable parameter vector P that
// execution reads.  The paper's AI geometry knobs (totalSize, heightSize,
// widthSize, numChannels) are not here: no proxy's input generator or motif
// reads them, so they would tune nothing.  A zero ChunkSize, NumTasks or
// BatchSize means "not applicable" for the proxy at hand, as the paper
// sets unrelated elements of P to zero; DataSize and Weight are required.
type Params struct {
	// DataSize is the input data size the proxy benchmark represents, in
	// bytes; every edge extrapolates its sample to DataSize * Weight times
	// its own DAG weight.
	DataSize uint64
	// ChunkSize is the data block size processed by each thread, in bytes.
	ChunkSize uint64
	// NumTasks is the process/thread count per motif.
	NumTasks int
	// Weight multiplies every edge's DAG weight.
	Weight float64
	// BatchSize is the per-iteration batch size for AI data motifs.
	BatchSize int
}

// ParameterNames lists the tunable parameter names in canonical order;
// Setting keys must come from this list.  Each names one field of Params.
var ParameterNames = []string{
	"dataSize",
	"chunkSize",
	"numTasks",
	"weight",
	"batchSize",
}

// Setting is a concrete assignment of the tunable parameters expressed as
// multiplicative factors over a benchmark's base parameters (1.0 leaves the
// base value unchanged).  The auto-tuner searches over Settings.
type Setting map[string]float64

// DefaultSetting returns the identity setting (all factors 1.0).
func DefaultSetting() Setting {
	s := make(Setting, len(ParameterNames))
	for _, n := range ParameterNames {
		s[n] = 1
	}
	return s
}

// Clone returns a deep copy of the setting.
func (s Setting) Clone() Setting {
	c := make(Setting, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Get returns the factor for a parameter, defaulting to 1.
func (s Setting) Get(name string) float64 {
	if v, ok := s[name]; ok && v > 0 {
		return v
	}
	return 1
}

// Validate rejects unknown parameter names and non-positive or non-finite
// factors.  NaN needs an explicit check: it fails every ordered comparison,
// so `v <= 0` alone would wave it through into the scaling arithmetic.
func (s Setting) Validate() error {
	valid := make(map[string]bool, len(ParameterNames))
	for _, n := range ParameterNames {
		valid[n] = true
	}
	for k, v := range s {
		if !valid[k] {
			return fmt.Errorf("core: unknown tunable parameter %q", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: parameter %q has non-finite factor %g", k, v)
		}
		if v <= 0 {
			return fmt.Errorf("core: parameter %q has non-positive factor %g", k, v)
		}
	}
	return nil
}

// Canonical returns a deterministic, bit-exact cache key of the setting's
// effective factors: every parameter of ParameterNames in canonical order
// with the raw IEEE-754 bits of its effective factor (Get semantics, so a
// missing parameter and an explicit 1.0 canonicalise identically).  Two
// settings with equal Canonical strings produce identical simulations, which
// is what the tuner's measurement memo keys on.
func (s Setting) Canonical() string {
	return string(s.AppendCanonical(make([]byte, 0, len(ParameterNames)*28)))
}

// AppendCanonical appends the canonical form of the setting to dst and
// returns the extended slice, byte-identical to Canonical.  The serving hot
// path builds its cache-lookup keys with it into a reused buffer, so a
// repeated request costs zero allocations.
func (s Setting) AppendCanonical(dst []byte) []byte {
	for i, n := range ParameterNames {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, n...)
		dst = append(dst, '=')
		dst = appendHex16(dst, math.Float64bits(s.Get(n)))
	}
	return dst
}

// appendHex16 appends v as exactly sixteen lowercase hex digits (the %016x
// rendering Canonical has always used).
func appendHex16(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(v>>uint(shift))&0xF])
	}
	return dst
}

// String renders the setting deterministically (sorted by name).
func (s Setting) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.3f", k, s[k])
	}
	return out
}

// Apply produces the effective parameters under a setting.
func (p Params) Apply(s Setting) Params {
	out := p
	out.DataSize = scaleU64(p.DataSize, s.Get("dataSize"))
	out.ChunkSize = scaleU64(p.ChunkSize, s.Get("chunkSize"))
	out.NumTasks = scaleInt(p.NumTasks, s.Get("numTasks"))
	out.Weight = p.Weight * s.Get("weight")
	out.BatchSize = scaleInt(p.BatchSize, s.Get("batchSize"))
	return out
}

func scaleU64(v uint64, f float64) uint64 {
	if v == 0 {
		return 0
	}
	out := uint64(float64(v) * f)
	if out == 0 {
		out = 1
	}
	return out
}

func scaleInt(v int, f float64) int {
	if v == 0 {
		return 0
	}
	out := int(float64(v) * f)
	if out == 0 {
		out = 1
	}
	return out
}

// Validate rejects obviously broken base parameters.
func (p Params) Validate() error {
	if p.DataSize == 0 {
		return fmt.Errorf("core: parameters define no dataSize")
	}
	if p.NumTasks < 0 || p.BatchSize < 0 {
		return fmt.Errorf("core: negative task or batch count")
	}
	if p.Weight <= 0 {
		return fmt.Errorf("core: non-positive weight")
	}
	return nil
}

// Package perf provides software performance counters and the derived
// system and micro-architectural metric vector used throughout the proxy
// benchmark methodology (Table V of the paper), together with the accuracy
// formula (Equation 3) used to compare a proxy benchmark against the real
// workload it mimics.
//
// The counters play the role of the hardware performance monitoring
// counters (PMCs) the paper reads through Linux perf: every simulated
// execution accumulates a Counters value, and Metrics are derived from it.
package perf

import "fmt"

// SectorSize is the disk sector size in bytes used for the disk I/O
// bandwidth computation (Equation 2 of the paper; 512 bytes on the paper's
// nodes).
const SectorSize = 512

// Counters is the raw event-count view of an execution, mirroring the
// hardware events the paper collects from PMCs.  All values are totals for
// the observed execution; they can be added across tasks and nodes and
// scaled when only a sample of the data set was actually processed.
type Counters struct {
	// Instruction classes (retired instructions).
	LoadInstrs   uint64
	StoreInstrs  uint64
	IntInstrs    uint64
	FloatInstrs  uint64
	BranchInstrs uint64

	// Cycles consumed by the instruction stream on the modelled core.
	Cycles uint64

	// Branch prediction.
	BranchMisses uint64

	// Cache hierarchy accesses and misses.
	L1IAccesses uint64
	L1IMisses   uint64
	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64
	L3Accesses  uint64
	L3Misses    uint64

	// Memory traffic in bytes (reads from and writes to DRAM).
	MemReadBytes  uint64
	MemWriteBytes uint64

	// Disk traffic in bytes.
	DiskReadBytes  uint64
	DiskWriteBytes uint64

	// Network traffic in bytes (cluster interconnect).
	NetSentBytes uint64
	NetRecvBytes uint64
}

// Instructions returns the total number of retired instructions across all
// instruction classes.
func (c Counters) Instructions() uint64 {
	return c.LoadInstrs + c.StoreInstrs + c.IntInstrs + c.FloatInstrs + c.BranchInstrs
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.LoadInstrs += o.LoadInstrs
	c.StoreInstrs += o.StoreInstrs
	c.IntInstrs += o.IntInstrs
	c.FloatInstrs += o.FloatInstrs
	c.BranchInstrs += o.BranchInstrs
	c.Cycles += o.Cycles
	c.BranchMisses += o.BranchMisses
	c.L1IAccesses += o.L1IAccesses
	c.L1IMisses += o.L1IMisses
	c.L1DAccesses += o.L1DAccesses
	c.L1DMisses += o.L1DMisses
	c.L2Accesses += o.L2Accesses
	c.L2Misses += o.L2Misses
	c.L3Accesses += o.L3Accesses
	c.L3Misses += o.L3Misses
	c.MemReadBytes += o.MemReadBytes
	c.MemWriteBytes += o.MemWriteBytes
	c.DiskReadBytes += o.DiskReadBytes
	c.DiskWriteBytes += o.DiskWriteBytes
	c.NetSentBytes += o.NetSentBytes
	c.NetRecvBytes += o.NetRecvBytes
}

// Scale multiplies every counter by f.  It is used to extrapolate counters
// collected on a sampled fraction of the input data to the full data set
// size (sampled simulation).
func (c *Counters) Scale(f float64) {
	if f < 0 {
		f = 0
	}
	s := func(v uint64) uint64 { return uint64(float64(v) * f) }
	c.LoadInstrs = s(c.LoadInstrs)
	c.StoreInstrs = s(c.StoreInstrs)
	c.IntInstrs = s(c.IntInstrs)
	c.FloatInstrs = s(c.FloatInstrs)
	c.BranchInstrs = s(c.BranchInstrs)
	c.Cycles = s(c.Cycles)
	c.BranchMisses = s(c.BranchMisses)
	c.L1IAccesses = s(c.L1IAccesses)
	c.L1IMisses = s(c.L1IMisses)
	c.L1DAccesses = s(c.L1DAccesses)
	c.L1DMisses = s(c.L1DMisses)
	c.L2Accesses = s(c.L2Accesses)
	c.L2Misses = s(c.L2Misses)
	c.L3Accesses = s(c.L3Accesses)
	c.L3Misses = s(c.L3Misses)
	c.MemReadBytes = s(c.MemReadBytes)
	c.MemWriteBytes = s(c.MemWriteBytes)
	c.DiskReadBytes = s(c.DiskReadBytes)
	c.DiskWriteBytes = s(c.DiskWriteBytes)
	c.NetSentBytes = s(c.NetSentBytes)
	c.NetRecvBytes = s(c.NetRecvBytes)
}

// ScaledBy returns a copy of the counters multiplied by f.  A factor of
// exactly 1 returns the receiver unchanged: Scale rounds every counter
// through float64, which is lossy above 2^53 even at f == 1, and the
// simulation engine relies on an unscaled lane never entering Scale at
// all.
func (c Counters) ScaledBy(f float64) Counters {
	if f == 1 {
		return c
	}
	c.Scale(f)
	return c
}

// ClampMisses caps every miss counter at its corresponding access counter.
// The simulation engine extrapolates line-granular cache samples up to
// word-granular access totals; on tiny samples (a sub-word access straddling
// a line boundary, a few probed lines standing for a short run) the scaled
// miss count can overshoot the access count by a rounding step, and this
// clamp restores the Validate invariants after extrapolation.
func (c *Counters) ClampMisses() {
	if c.L1IMisses > c.L1IAccesses {
		c.L1IMisses = c.L1IAccesses
	}
	if c.L1DMisses > c.L1DAccesses {
		c.L1DMisses = c.L1DAccesses
	}
	if c.L2Misses > c.L2Accesses {
		c.L2Misses = c.L2Accesses
	}
	if c.L3Misses > c.L3Accesses {
		c.L3Misses = c.L3Accesses
	}
	if c.BranchMisses > c.BranchInstrs {
		c.BranchMisses = c.BranchInstrs
	}
}

// IsZero reports whether no events at all have been recorded.
func (c Counters) IsZero() bool {
	return c.Instructions() == 0 && c.Cycles == 0 &&
		c.MemReadBytes == 0 && c.MemWriteBytes == 0 &&
		c.DiskReadBytes == 0 && c.DiskWriteBytes == 0
}

// Validate returns an error when the counter values are internally
// inconsistent (e.g. more misses than accesses).  It is used by tests and by
// the simulation engine as a sanity check.
func (c Counters) Validate() error {
	type pair struct {
		name             string
		misses, accesses uint64
	}
	pairs := []pair{
		{"L1I", c.L1IMisses, c.L1IAccesses},
		{"L1D", c.L1DMisses, c.L1DAccesses},
		{"L2", c.L2Misses, c.L2Accesses},
		{"L3", c.L3Misses, c.L3Accesses},
		{"branch", c.BranchMisses, c.BranchInstrs},
	}
	for _, p := range pairs {
		if p.misses > p.accesses {
			return fmt.Errorf("perf: %s misses (%d) exceed accesses (%d)", p.name, p.misses, p.accesses)
		}
	}
	return nil
}

// String returns a compact human-readable summary of the counters.
func (c Counters) String() string {
	return fmt.Sprintf("instr=%d cycles=%d l1dMiss=%d l2Miss=%d l3Miss=%d brMiss=%d memR=%d memW=%d diskR=%d diskW=%d",
		c.Instructions(), c.Cycles, c.L1DMisses, c.L2Misses, c.L3Misses, c.BranchMisses,
		c.MemReadBytes, c.MemWriteBytes, c.DiskReadBytes, c.DiskWriteBytes)
}

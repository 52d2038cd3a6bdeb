package sim

import (
	"math/bits"

	"dataproxy/internal/arch"
	"dataproxy/internal/perf"
)

// Exec records the work performed by one task on one core of a node.  Motif
// and workload implementations call its methods while they compute on real
// data; the Exec counts instructions, drives the cache and branch models
// with (a sampled subset of) the resulting event stream, and converts the
// totals into cycles and virtual time when the task finishes.
type Exec struct {
	node *Node
	cfg  ClusterConfig
	core *arch.Core

	counters perf.Counters

	// Instruction fetch / code footprint model.
	codeRegion    Region
	codePtr       uint64
	codeJumpPer1k int
	fetchPending  uint64 // instructions since the last modelled fetch
	fetchInterval uint64

	// Sampled micro-architecture observations, kept separately for the data
	// side and the instruction side because their extrapolation factors
	// differ.
	data  sampleStats
	instr sampleStats
	// memLevel is the level arch.Cache.AccessLine reports for a probe that
	// went to memory, and memLineBytes the bytes such a probe moves
	// (sampleStats.fold).
	memLevel     int
	memLineBytes uint64

	sampledBranches   uint64
	sampledBranchMiss uint64

	diskSeconds float64
	netSeconds  float64

	rng uint64
}

// sampleStats aggregates the outcome of the accesses actually pushed through
// the cache hierarchy.  The engine probes at line granularity, one
// arch.Cache.AccessLine call per line, while the counters it extrapolates
// to are word granular, so the sample counts both the line-probe outcomes
// (fold) and the number of word ops they stand for (accesses).
type sampleStats struct {
	accesses uint64 // word ops the modelled probes stand for
	l1Miss   uint64
	l2Acc    uint64
	l2Miss   uint64
	l3Acc    uint64
	l3Miss   uint64
	memRead  uint64 // bytes
	memWrite uint64 // bytes
}

// fold counts one line probe that resolved at level lvl, as
// arch.Cache.AccessLine reports it: every level it missed, and the line of
// lineBytes it moved from memory (and, for a write, back: write-allocate
// with eventual write-back of the dirty line) when lvl is memLevel.  It is
// the one fold of a probe, for the data and the instruction side; the
// caller adds the word ops the probe stands for.
func (s *sampleStats) fold(lvl, memLevel int, lineBytes uint64, write bool) {
	if lvl == 0 {
		return
	}
	s.l1Miss++
	s.l2Acc++
	if lvl == 1 {
		return
	}
	s.l2Miss++
	s.l3Acc++
	if lvl < memLevel {
		return
	}
	s.l3Miss++
	s.memRead += lineBytes
	if write {
		s.memWrite += lineBytes
	}
}

// DefaultCodeFootprintBytes is the synthetic code footprint of a
// light-weight (POSIX-threads style) implementation.  Heavy software stacks
// override it with SetCodeFootprint.
const DefaultCodeFootprintBytes = 64 * 1024

const (
	wordBytes    = 8
	opsPerFetch  = 4 // instructions covered by one modelled instruction fetch
	missMLPHide  = 0.55
	defaultJumps = 60 // taken control transfers per 1000 instructions
)

func newExec(n *Node, coreSlot int) *Exec {
	cfg := n.cluster.cfg
	e := &Exec{
		node:          n,
		cfg:           cfg,
		core:          n.machine.Core(coreSlot),
		codeJumpPer1k: defaultJumps,
		fetchInterval: uint64(opsPerFetch * cfg.EventSampleRate),
		rng:           uint64(coreSlot)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
	// Both L1 chains end at the shared L3 (arch.NewHierarchy).
	e.memLevel = e.core.Caches.L1D.Depth()
	e.memLineBytes = uint64(e.core.Caches.L3.Config().LineBytes)
	e.codeRegion = n.Alloc(DefaultCodeFootprintBytes)
	return e
}

// Node returns the node this execution runs on.
func (e *Exec) Node() *Node { return e.node }

// Counters exposes the raw counters accumulated so far (before the sample
// extrapolation that runs when the task finishes).
func (e *Exec) Counters() perf.Counters { return e.counters }

// SetCodeFootprint models the instruction working-set size of the software
// stack executing this task (a few tens of KB for the light-weight proxy
// implementations, several MB for JVM/Hadoop or TensorFlow stacks) together
// with the frequency of taken control transfers per 1000 instructions,
// which controls instruction-cache locality.
func (e *Exec) SetCodeFootprint(bytes uint64, jumpsPer1k int) {
	if bytes == 0 {
		bytes = DefaultCodeFootprintBytes
	}
	if jumpsPer1k <= 0 {
		jumpsPer1k = defaultJumps
	}
	e.codeRegion = e.node.Alloc(bytes)
	e.codeJumpPer1k = jumpsPer1k
}

func (e *Exec) nextRand() uint64 {
	// xorshift64*
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return x * 0x2545F4914F6CDD1D
}

// countInstr adds n instructions of any class to the instruction-fetch
// model.  The number of fetches actually pushed through the L1I model per
// call is capped (mirroring the data side's MaxModelOpsPerCall): a capped
// call spreads its modelled fetches across the whole run by letting each
// one stand for `skip` real fetches, so the sample reflects steady-state
// rather than warm-up behaviour.  The unmodelled remainder is covered by
// the extrapolation in finish, which scales the sampled miss counts up to
// the full L1IAccesses total.
func (e *Exec) countInstr(n uint64) {
	e.counters.L1IAccesses += n
	e.fetchPending += n
	if e.fetchPending < e.fetchInterval {
		return
	}
	fetches := e.fetchPending / e.fetchInterval
	e.fetchPending -= fetches * e.fetchInterval
	skip := uint64(1)
	if limit := uint64(e.cfg.MaxModelFetchesPerCall); fetches > limit {
		skip = fetches / limit
		fetches = limit
	}
	for i := uint64(0); i < fetches; i++ {
		e.modelFetch(skip)
	}
}

// modelFetch models one instruction fetch standing for skip real fetches:
// sequential advance with occasional jumps within the code footprint.  The
// per-fetch jump probability is scaled by skip (saturating at always-jump),
// so a sparsely sampled long run degenerates to random sampling of the code
// footprint — its steady-state locality — instead of a short sequential
// walk.
func (e *Exec) modelFetch(skip uint64) {
	jumpPerMille := uint64(e.codeJumpPer1k) * skip
	if jumpPerMille > 1000 {
		jumpPerMille = 1000
	}
	if e.nextRand()%1000 < jumpPerMille {
		e.codePtr = e.nextRand() % e.codeRegion.Size()
	} else {
		// Kept inside the region, so Addr takes no modulo.
		e.codePtr += 64 * skip
		if e.codePtr >= e.codeRegion.Size() {
			e.codePtr %= e.codeRegion.Size()
		}
	}
	e.instr.accesses++
	e.probeLine(&e.instr, e.core.Caches.L1I, e.codeRegion.Addr(e.codePtr), false)
}

// probeLine pushes one probe of addr's line through the hierarchy under l1
// and folds the level it resolved at into s; the caller adds the word ops
// the probe stands for.
func (e *Exec) probeLine(s *sampleStats, l1 *arch.Cache, addr uint64, write bool) {
	s.fold(l1.AccessLine(addr, write), e.memLevel, e.memLineBytes, write)
}

// probeRun probes each line of the bytes-long run at addr once, in address
// order, folds it into the data sample and returns the number of probes.
// The loop calls AccessLine and the inlined fold directly, so a line costs
// one call.
func (e *Exec) probeRun(l1 *arch.Cache, addr, bytes, lineBytes uint64, write bool) uint64 {
	if bytes == 0 {
		return 0
	}
	var probes uint64
	last := (addr + bytes - 1) &^ (lineBytes - 1)
	for a := addr &^ (lineBytes - 1); ; a += lineBytes {
		e.data.fold(l1.AccessLine(a, write), e.memLevel, e.memLineBytes, write)
		probes++
		if a == last {
			return probes
		}
	}
}

// Int records n integer ALU instructions.
func (e *Exec) Int(n uint64) {
	e.counters.IntInstrs += n
	e.countInstr(n)
}

// Float records n floating-point instructions.
func (e *Exec) Float(n uint64) {
	e.counters.FloatInstrs += n
	e.countInstr(n)
}

// Branch records one branch instruction at the given call site with its
// actual outcome; the site distinguishes independent branches so that the
// gshare predictor model sees realistic per-site histories.
func (e *Exec) Branch(site uint64, taken bool) {
	e.counters.BranchInstrs++
	e.countInstr(1)
	e.sampledBranches++
	if !e.core.Branch.Record(site*2654435761+e.codeRegion.base, taken) {
		e.sampledBranchMiss++
	}
}

// Load records a sequential read of size bytes starting at offset off of
// region r.  It counts one load instruction per machine word but drives the
// cache model at line granularity: the hierarchy is probed once per cache
// line of the run (up to MaxModelOpsPerCall lines, extrapolating the
// remainder), and the intra-line word accesses — L1 hits by construction —
// are accounted arithmetically.
func (e *Exec) Load(r Region, off, size uint64) { e.access(r, off, size, false) }

// Store records a sequential write of size bytes starting at offset off of
// region r, with write-allocate cache semantics.
func (e *Exec) Store(r Region, off, size uint64) { e.access(r, off, size, true) }

// wordOps returns the number of word-granular operations a size-byte access
// run stands for; a sub-word access (including size 0) still costs one
// operation.  It is the single definition of the clamp shared by Load,
// Store, Touch and LoadResident accounting.
func wordOps(size uint64) uint64 {
	ops := size / wordBytes
	if ops == 0 {
		ops = 1
	}
	return ops
}

// LoadResident records a sequential re-read of size bytes at offset off of
// region r whose data the caller asserts is cache-resident: a small working
// set re-streamed in a tight loop, such as a matrix row read once per
// output column or a centroid block re-read for every input vector.  The
// instruction, access and sample accounting derive from (r, off, size)
// exactly as Load's do — including the sub-word clamp to one op — but the
// run's line probes are recorded as L1 hits without being re-simulated,
// which keeps the modelling cost of O(n^3)-style re-stream loops bounded.
// The first stream of such data must still be reported with Load so the
// hierarchy observes its footprint.
func (e *Exec) LoadResident(r Region, off, size uint64) {
	_ = r.Addr(off) // the run's addresses are asserted hits; nothing to probe
	ops := wordOps(size)
	e.counters.LoadInstrs += ops
	e.counters.L1DAccesses += ops
	e.countInstr(ops)
	e.data.accesses += ops
}

func (e *Exec) access(r Region, off, size uint64, write bool) {
	ops := wordOps(size)
	if write {
		e.counters.StoreInstrs += ops
	} else {
		e.counters.LoadInstrs += ops
	}
	e.counters.L1DAccesses += ops
	e.countInstr(ops)

	l1 := e.core.Caches.L1D
	lineBytes := uint64(e.cfg.Profile.L1D.LineBytes)
	// arch validates line sizes to be powers of two.
	lines := (size + lineBytes - 1) >> bits.TrailingZeros64(lineBytes)
	if lines == 0 {
		lines = 1
	}
	if r.size == 0 {
		// A zero-size region pins every offset to its base, so the whole
		// run is one line re-touched; probe it once and let extrapolation
		// account for the rest.
		e.data.accesses += ops
		e.probeLine(&e.data, l1, r.base, write)
		return
	}
	if off >= r.size {
		off %= r.size
	}
	if limit := uint64(e.cfg.MaxModelOpsPerCall); lines > limit {
		// Capped call: model `limit` lines spread evenly across the run so
		// capacity effects of large runs stay visible; the unmodelled
		// remainder is extrapolated at finish.  The cap counts lines, not
		// words — probe i stands for the run's lines around index
		// i*lines/limit, so the sample spans the whole run even when lines
		// is not a multiple of the cap.
		for i := uint64(0); i < limit; i++ {
			line := i * lines / limit
			e.probeLine(&e.data, l1, r.Addr(off+line*lineBytes), write)
		}
		// As below, the sample never stands for fewer word ops than it has
		// probes.
		e.data.accesses += max(ops*limit/lines, limit)
		return
	}
	covered := ops
	var probes uint64
	if size <= r.size-off {
		// Common case: the run is contiguous inside the region.  A run
		// inside one line (every aligned word access) is one probe;
		// otherwise each touched line is probed exactly once.
		addr := r.Addr(off)
		if size > 0 && addr&(lineBytes-1)+size <= lineBytes {
			e.data.accesses += ops
			e.probeLine(&e.data, l1, addr, write)
			return
		}
		probes = e.probeRun(l1, addr, size, lineBytes, write)
	} else {
		// The run wraps around the region; walk it in contiguous chunks,
		// each starting again at the region's base.  A sub-line region
		// makes every chunk tiny, so the number of chunk walks is bounded
		// by the same per-call cap as the strided branch and the unwalked
		// remainder is extrapolated at finish.
		walked := uint64(0)
		chunks := uint64(e.cfg.MaxModelOpsPerCall)
		for remaining := size; remaining > 0 && chunks > 0; chunks-- {
			chunk := r.size - off%r.size
			if chunk > remaining {
				chunk = remaining
			}
			probes += e.probeRun(l1, r.Addr(off), chunk, lineBytes, write)
			off += chunk
			walked += chunk
			remaining -= chunk
		}
		if walked < size {
			covered = ops * walked / size
		}
	}
	// The sample never stands for fewer word ops than it has probes: a
	// tiny unaligned run can straddle more lines than it has words, and a
	// wrapping walk cut off after its first chunks stands for their share
	// of the word ops, which can be fewer than the probes it made.
	e.data.accesses += max(covered, probes)
}

// Touch records a single word-sized access at offset off of region r; it is
// the building block for random-access patterns (hash probes, pointer
// chasing, graph traversal).
func (e *Exec) Touch(r Region, off uint64, write bool) {
	e.access(r, off, wordBytes, write)
}

// ReadDisk records reading size bytes from the node's local disk.  Disk time
// is charged at the profile's sequential bandwidth; seek-dominated access
// patterns can add explicit time through DiskSecondsHint.
func (e *Exec) ReadDisk(size uint64) {
	e.counters.DiskReadBytes += size
	p := e.cfg.Profile
	e.diskSeconds += float64(size) / p.DiskBandwidthBytesPS
	// The kernel and framework I/O path costs instructions too.
	e.ioPathInstructions(size)
}

// WriteDisk records writing size bytes to the node's local disk.
func (e *Exec) WriteDisk(size uint64) {
	e.counters.DiskWriteBytes += size
	p := e.cfg.Profile
	e.diskSeconds += float64(size) / p.DiskBandwidthBytesPS
	e.ioPathInstructions(size)
}

// NetSend records sending size bytes to another node.
func (e *Exec) NetSend(size uint64) {
	e.counters.NetSentBytes += size
	p := e.cfg.Profile
	e.netSeconds += p.NetLatencySeconds + float64(size)/p.NetBandwidthBytesPS
	e.ioPathInstructions(size / 2)
}

// NetRecv records receiving size bytes from another node.
func (e *Exec) NetRecv(size uint64) {
	e.counters.NetRecvBytes += size
	p := e.cfg.Profile
	e.netSeconds += p.NetLatencySeconds + float64(size)/p.NetBandwidthBytesPS
	e.ioPathInstructions(size / 2)
}

// ioPathInstructions models the per-byte CPU cost of the I/O path (copying,
// checksumming, protocol handling): a few integer instructions and branches
// per cache line moved.
func (e *Exec) ioPathInstructions(size uint64) {
	lines := size / 64
	if lines == 0 {
		return
	}
	e.counters.IntInstrs += lines * 2
	e.counters.BranchInstrs += lines / 8
	e.countInstr(lines*2 + lines/8)
}

// DiskSecondsHint adds extra virtual disk time without byte accounting, used
// by framework models for seek-dominated activity (e.g. shuffle of many
// small spill files).
func (e *Exec) DiskSecondsHint(sec float64) {
	if sec > 0 {
		e.diskSeconds += sec
	}
}

// finish extrapolates the sampled model observations onto the full counter
// totals and derives cycles.  The stage executor calls it exactly once per
// Exec and then accounts the unscaled totals into each lane under that
// lane's own extrapolation factor.
func (e *Exec) finish() {
	// Extrapolate data-side cache behaviour.
	if e.data.accesses > 0 {
		f := float64(e.counters.L1DAccesses) / float64(e.data.accesses)
		e.counters.L1DMisses = scaleU(e.data.l1Miss, f)
		e.counters.L2Accesses += scaleU(e.data.l2Acc, f)
		e.counters.L2Misses += scaleU(e.data.l2Miss, f)
		e.counters.L3Accesses += scaleU(e.data.l3Acc, f)
		e.counters.L3Misses += scaleU(e.data.l3Miss, f)
		e.counters.MemReadBytes += scaleU(e.data.memRead, f)
		e.counters.MemWriteBytes += scaleU(e.data.memWrite, f)
	}
	// Extrapolate instruction-side cache behaviour.
	if e.instr.accesses > 0 {
		// One modelled fetch stands for fetchInterval instructions but the
		// L1I access counter counts every instruction, so extrapolate misses
		// at line granularity: misses per modelled fetch * fetches per
		// instruction stream.
		f := float64(e.counters.L1IAccesses) / float64(e.instr.accesses*e.fetchInterval)
		// Express instruction accesses in fetch units for miss accounting.
		e.counters.L1IMisses = scaleU(e.instr.l1Miss, f*float64(e.fetchInterval)/float64(opsPerFetch))
		if e.counters.L1IMisses > e.counters.L1IAccesses {
			e.counters.L1IMisses = e.counters.L1IAccesses
		}
		fi := float64(e.counters.L1IMisses)
		if e.instr.l1Miss > 0 {
			fi = fi / float64(e.instr.l1Miss)
		} else {
			fi = 0
		}
		e.counters.L2Accesses += scaleU(e.instr.l2Acc, fi)
		e.counters.L2Misses += scaleU(e.instr.l2Miss, fi)
		e.counters.L3Accesses += scaleU(e.instr.l3Acc, fi)
		e.counters.L3Misses += scaleU(e.instr.l3Miss, fi)
		e.counters.MemReadBytes += scaleU(e.instr.memRead, fi)
	}
	// Extrapolate branch prediction.
	if e.sampledBranches > 0 {
		f := float64(e.counters.BranchInstrs) / float64(e.sampledBranches)
		e.counters.BranchMisses = scaleU(e.sampledBranchMiss, f)
	}
	// Line-granular samples extrapolated to word-granular totals can
	// overshoot by a rounding step on tiny samples; restore the miss ≤
	// access invariants before cycles are derived from the counters.
	e.counters.ClampMisses()

	e.counters.Cycles = e.deriveCycles()
}

func scaleU(v uint64, f float64) uint64 {
	if f <= 0 {
		return 0
	}
	return uint64(float64(v) * f)
}

// deriveCycles assembles the cycle count from the instruction stream and the
// modelled stall sources: issue width, floating point cost, cache miss
// latencies (partially hidden by memory-level parallelism) and branch
// mispredictions.
func (e *Exec) deriveCycles() uint64 {
	p := e.cfg.Profile
	instr := float64(e.counters.Instructions())
	base := instr / float64(p.IssueWidth)
	fpExtra := float64(e.counters.FloatInstrs) * (p.FloatCostFactor - 1)
	if fpExtra < 0 {
		fpExtra = 0
	}
	missPenalty := float64(e.counters.L1DMisses)*float64(p.L2.LatencyCycles) +
		float64(e.counters.L2Misses)*float64(p.L3.LatencyCycles) +
		float64(e.counters.L3Misses)*float64(p.MemLatencyCycles)
	instrPenalty := float64(e.counters.L1IMisses) * float64(p.L2.LatencyCycles)
	branchPenalty := float64(e.counters.BranchMisses) * float64(p.Branch.MissPenaltyCycles)
	cycles := base + fpExtra + (1-missMLPHide)*missPenalty + instrPenalty + branchPenalty
	if cycles < 1 {
		cycles = 1
	}
	return uint64(cycles)
}

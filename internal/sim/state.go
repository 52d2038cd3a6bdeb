package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dataproxy/internal/perf"
)

// This file implements whole-cluster state export/import so a simulation
// can be checkpointed between stages and continued in another process with
// bit-identical results.  A checkpoint is only meaningful at a stage
// boundary: RunStage runs its Execs to completion before returning, so at
// that point the cluster's entire mutable state is the per-node counters,
// virtual-time accounts, address allocators and machine models plus the
// cluster clock and stage records — exactly what ExportState captures.
//
// The stream opens with a magic tag and the cluster's configuration
// fingerprint; ImportState refuses state from a differently configured
// cluster, because geometry-compatible but semantically different
// configurations (another sampling rate, another memory capacity) would
// silently diverge after resume.

// clusterStateMagic tags an exported cluster state stream.  The trailing
// byte is the layout version; bump it on incompatible change.
const clusterStateMagic = "DPXCLST1"

// ExportState serializes the cluster's complete mutable state.  It must be
// called at a stage boundary (never from inside a running stage).  The
// encoding is byte-deterministic: exporting the same state twice yields
// identical bytes.
func (c *Cluster) ExportState() []byte {
	dst := []byte(clusterStateMagic)
	dst = appendStateString(dst, c.fingerprint)
	l := &c.own[0]
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(l.elapsed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(l.stages)))
	for _, s := range l.stages {
		dst = appendStageResult(dst, s)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(c.nodes)))
	for _, n := range c.nodes {
		dst = n.appendState(dst)
	}
	return dst
}

// ImportState restores state previously produced by ExportState on a
// cluster with the identical configuration.  On any mismatch — wrong
// magic, different configuration fingerprint, node-count or machine
// geometry divergence, truncation — the cluster is reset to its
// construction state and an error returned, so a failed import never
// leaves a half-loaded cluster behind.
func (c *Cluster) ImportState(src []byte) error {
	fail := func(err error) error {
		c.Reset()
		return err
	}
	if len(src) < len(clusterStateMagic) || string(src[:len(clusterStateMagic)]) != clusterStateMagic {
		return fail(fmt.Errorf("sim: cluster state has bad magic"))
	}
	src = src[len(clusterStateMagic):]
	fp, src, err := consumeStateString(src)
	if err != nil {
		return fail(err)
	}
	if fp != c.fingerprint {
		return fail(fmt.Errorf("sim: cluster state was exported from a different configuration:\n  state:   %s\n  cluster: %s", fp, c.fingerprint))
	}
	r := stateReader{buf: src}
	elapsed := math.Float64frombits(r.u64())
	nStages := r.u64()
	if r.err != nil {
		return fail(r.err)
	}
	stages := make([]StageResult, 0, nStages)
	for i := uint64(0); i < nStages; i++ {
		s, err := consumeStageResult(&r)
		if err != nil {
			return fail(err)
		}
		stages = append(stages, s)
	}
	nNodes := r.u64()
	if r.err != nil {
		return fail(r.err)
	}
	if nNodes != uint64(len(c.nodes)) {
		return fail(fmt.Errorf("sim: cluster state carries %d nodes, this cluster has %d", nNodes, len(c.nodes)))
	}
	c.Reset()
	c.own[0].elapsed = elapsed
	c.own[0].stages = append(c.own[0].stages[:0], stages...)
	buf := r.buf
	for _, n := range c.nodes {
		if buf, err = n.loadState(buf); err != nil {
			return fail(err)
		}
	}
	if len(buf) != 0 {
		return fail(fmt.Errorf("sim: %d trailing bytes after cluster state", len(buf)))
	}
	return nil
}

// appendState serializes one node: counters, virtual-time accounts, the
// address allocator, the exec sequence and the machine models.
func (n *Node) appendState(dst []byte) []byte {
	acct := n.account()
	dst = acct.counters.AppendBinary(dst)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acct.cpuSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acct.diskSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(acct.netSeconds))
	dst = binary.LittleEndian.AppendUint64(dst, n.nextRegionBase)
	dst = binary.LittleEndian.AppendUint64(dst, n.allocatedBytes)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n.execSeq))
	return n.machine.AppendState(dst)
}

// loadState restores one node from the front of src, returning the
// remainder.
func (n *Node) loadState(src []byte) ([]byte, error) {
	cnt, src, err := perf.CountersFromBinary(src)
	if err != nil {
		return nil, err
	}
	r := stateReader{buf: src}
	cpu := math.Float64frombits(r.u64())
	disk := math.Float64frombits(r.u64())
	net := math.Float64frombits(r.u64())
	regionBase := r.u64()
	allocated := r.u64()
	execSeq := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	rest, err := n.machine.LoadState(r.buf)
	if err != nil {
		return nil, err
	}
	*n.account() = nodeAccount{counters: cnt, cpuSeconds: cpu, diskSeconds: disk, netSeconds: net}
	n.nextRegionBase = regionBase
	n.allocatedBytes = allocated
	n.execSeq = int(execSeq)
	return rest, nil
}

// appendStageResult serializes one stage record.  The per-node map is
// emitted sorted by node ID so the encoding is deterministic; a nil map
// (AdvanceTime stages) is distinguished from an empty one so a re-export
// after import is byte-identical to the original export.
func appendStageResult(dst []byte, s StageResult) []byte {
	dst = appendStateString(dst, s.Name)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Seconds))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Tasks))
	if s.PerNodeSeconds == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	ids := make([]int, 0, len(s.PerNodeSeconds))
	for id := range s.PerNodeSeconds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.PerNodeSeconds[id]))
	}
	return dst
}

// consumeStageResult decodes one stage record from r.
func consumeStageResult(r *stateReader) (StageResult, error) {
	name, rest, err := consumeStateString(r.buf)
	if err != nil {
		return StageResult{}, err
	}
	r.buf = rest
	s := StageResult{Name: name}
	s.Seconds = math.Float64frombits(r.u64())
	s.Tasks = int(r.u64())
	hasMap := r.byte()
	if r.err != nil {
		return StageResult{}, r.err
	}
	if hasMap == 0 {
		return s, nil
	}
	n := r.u64()
	s.PerNodeSeconds = make(map[int]float64, n)
	for i := uint64(0); i < n; i++ {
		id := r.u64()
		sec := math.Float64frombits(r.u64())
		if r.err != nil {
			return StageResult{}, r.err
		}
		s.PerNodeSeconds[int(id)] = sec
	}
	return s, nil
}

// appendStateString appends a length-prefixed string.
func appendStateString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

// consumeStateString decodes a length-prefixed string from the front of
// src, returning it with the remainder.
func consumeStateString(src []byte) (string, []byte, error) {
	if len(src) < 8 {
		return "", nil, fmt.Errorf("sim: cluster state truncated")
	}
	n := binary.LittleEndian.Uint64(src)
	src = src[8:]
	if n > uint64(len(src)) {
		return "", nil, fmt.Errorf("sim: cluster state truncated (string of %d bytes)", n)
	}
	return string(src[:n]), src[n:], nil
}

// stateReader consumes little-endian words from a byte stream, latching
// the first truncation error.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("sim: cluster state truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = fmt.Errorf("sim: cluster state truncated")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

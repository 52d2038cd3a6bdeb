package sim

import (
	"fmt"

	"dataproxy/internal/arch"
	"dataproxy/internal/perf"
)

// Node is one machine of the simulated cluster.  It owns an arch.Machine
// and an address space from which Regions are allocated; the counters and
// virtual time its Execs accumulate live in its entry of a ledger.
type Node struct {
	id      int
	cluster *Cluster
	machine *arch.Machine

	// Address space allocation for synthetic data regions.
	nextRegionBase uint64
	allocatedBytes uint64

	// execSeq hands out core slots to consecutive Execs.
	execSeq int
}

// ID returns the node index within the cluster (0 is the master when the
// cluster has master nodes).
func (n *Node) ID() int { return n.id }

// Machine returns the node's micro-architectural model.
func (n *Node) Machine() *arch.Machine { return n.machine }

// account is the node's entry in its cluster's own ledger.
func (n *Node) account() *nodeAccount { return &n.cluster.own[0].nodes[n.id] }

// Counters returns a copy of the counters the cluster's own stages
// accumulated on this node.
func (n *Node) Counters() perf.Counters { return n.account().counters }

// AllocatedBytes returns the total bytes of regions allocated on this node.
func (n *Node) AllocatedBytes() uint64 { return n.allocatedBytes }

// CPUSeconds returns the accumulated virtual CPU time of this node.
func (n *Node) CPUSeconds() float64 { return n.account().cpuSeconds }

// DiskSeconds returns the accumulated virtual disk time of this node.
func (n *Node) DiskSeconds() float64 { return n.account().diskSeconds }

// NetSeconds returns the accumulated virtual network time of this node.
func (n *Node) NetSeconds() float64 { return n.account().netSeconds }

// Region is a contiguous range of the node's synthetic address space.  It is
// used to generate deterministic addresses for the cache models without any
// reliance on real pointers.
type Region struct {
	base uint64
	size uint64
}

// Size returns the region size in bytes.
func (r Region) Size() uint64 { return r.size }

// Addr returns the absolute synthetic address of offset off within the
// region.  Offsets wrap around the region size so callers may index freely.
func (r Region) Addr(off uint64) uint64 {
	if off < r.size {
		return r.base + off
	}
	if r.size == 0 {
		return r.base
	}
	return r.base + off%r.size
}

// Alloc reserves size bytes of the node's synthetic address space and
// returns the region.  Regions are never freed: address reuse is modelled by
// reusing the same Region value, which is what produces cache locality for
// data that is revisited.
func (n *Node) Alloc(size uint64) Region {
	if size == 0 {
		size = 1
	}
	const pageAlign = 4096
	aligned := (size + pageAlign - 1) / pageAlign * pageAlign
	r := Region{base: n.nextRegionBase, size: size}
	n.nextRegionBase += aligned
	n.allocatedBytes += size
	return r
}

// Reset clears counters, virtual time and the address allocator, and resets
// the machine's cache and predictor state.
func (n *Node) Reset() {
	*n.account() = nodeAccount{}
	n.nextRegionBase = 0
	n.allocatedBytes = 0
	n.execSeq = 0
	n.machine.Reset()
}

// String identifies the node.
func (n *Node) String() string {
	return fmt.Sprintf("node%d(%s)", n.id, n.machine.Profile().Name)
}

// Package fleet shards a proxyd fleet: a consistent-hash ring assigns every
// trace shape of cache keys an owning replica, and Router fronts the
// replicas with the same /v1 API a single proxyd serves — single runs and
// tune jobs forward to the key's owner, batches split per owner and rejoin
// in request order, and a dead replica's keyspace moves to its ring
// successors without disturbing anyone else's keys.  Ownership is
// authoritative for where a trace shape is simulated; the replicas' cache
// gossip (internal/serve peering) is merely advisory warm-up on top of it.
package fleet

import (
	"hash/fnv"
	"sort"

	"dataproxy/internal/core"
	"dataproxy/internal/proxy"
)

// DefaultVnodes is the number of ring points each node contributes.  More
// points smooth the keyspace split between nodes; 128 keeps the worst-case
// share imbalance of a small fleet within a few percent.
const DefaultVnodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle owned
// by a physical node.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is a consistent-hash ring over named shard nodes.  Lookups walk the
// circle clockwise from the key's hash to the first point whose node is
// alive, so removing a node reassigns exactly the arcs it owned and nothing
// else — the property the fleet's cache locality depends on.  A Ring is
// immutable after construction and safe for concurrent use; liveness is the
// caller's per-lookup input, not ring state.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

// NewRing builds a ring over the given node names (order-insensitive,
// duplicates ignored) with vnodes points per node.
func NewRing(nodes []string, vnodes int) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	var buf []byte
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, n...)
			buf = append(buf, '#')
			buf = appendUint(buf, v)
			r.points = append(r.points, ringPoint{hash: hash64(buf), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Nodes returns the ring's node names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owner returns the node owning key among the nodes alive reports true for
// (nil means every node is alive).  ok is false when no node is alive.  Keys
// owned by a live node keep their owner no matter which other nodes die;
// only a dead node's keys move, to its ring successors.
func (r *Ring) Owner(key string, alive func(node string) bool) (owner string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64([]byte(key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	// Walk clockwise past dead nodes; checking each distinct node at most
	// once bounds the walk even when most of the ring is down.
	checked := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if checked[p.node] {
			continue
		}
		if alive == nil || alive(r.nodes[p.node]) {
			return r.nodes[p.node], true
		}
		checked[p.node] = true
		if len(checked) == len(r.nodes) {
			break
		}
	}
	return "", false
}

// Shares returns each live node's fraction of the hash space (summing to 1
// when any node is alive).  It is the keyspace view /v1/cluster and /metrics
// report, and what capacity planning reads.
func (r *Ring) Shares(alive func(node string) bool) map[string]float64 {
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return out
	}
	const space = float64(1<<63) * 2 // 2^64 as a float
	for i, p := range r.points {
		// The arc ending at point i belongs to point i's node; a dead node's
		// arc belongs to the next live point clockwise.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc := float64(p.hash - prev) // uint64 wrap-around handles i == 0
		owner, ok := r.ownerFromPoint(i, alive)
		if !ok {
			return out
		}
		out[owner] += arc / space
	}
	return out
}

// ownerFromPoint resolves the live node owning the arc that ends at point i.
func (r *Ring) ownerFromPoint(i int, alive func(node string) bool) (string, bool) {
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if alive == nil || alive(r.nodes[p.node]) {
			return r.nodes[p.node], true
		}
	}
	return "", false
}

// hash64 is the ring's point and key hash: 64-bit FNV-1a strengthened with a
// finalising mix.  Raw FNV-1a has weak avalanche on a trailing-byte change —
// the vnode names of one node ("s0#0", "s0#1", …) would land in one narrow
// band of the circle and wreck the keyspace balance — so the output is run
// through a Murmur3-style finaliser to spread every input bit over all 64.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// appendUint appends the decimal rendering of v (non-negative).
func appendUint(dst []byte, v int) []byte {
	if v >= 10 {
		dst = appendUint(dst, v/10)
	}
	return append(dst, byte('0'+v%10))
}

// RunKey is the sharding key of one /v1/run evaluation: workload, effective
// architecture and the shape of the setting's trace group
// (core.Benchmark.ShapeKey), the unit a replica's core.TraceStore keeps
// traces by.  The shape key reads the same effective factors the replica's
// memo key canonicalises (Setting.Get semantics, so a nil setting keys like
// the default), which gives every setting exactly one owner.  Every group
// of a shape shares that owner, whatever its chunk size and task count, so
// a batch's groups of one shape reach one replica's store, which simulates
// the shape once, or once per task count when its input splits, and
// accounts the other groups from those traces.  Concurrent cold singles of
// a shape share that replica's coalescing window.  An unknown workload
// keys as workload|arch, so its owner answers with the usual bad_request.
func RunKey(workload, archName string, setting core.Setting) string {
	if archName == "" {
		archName = "westmere"
	}
	b, err := proxy.ForWorkload(workload)
	if err != nil {
		return workload + "|" + archName
	}
	return workload + "|" + archName + "|" + b.ShapeKey(setting)
}

// TuneKey is the sharding key of one /v1/tune job: tune jobs for the same
// (workload, architecture) pair land on one owner so their evaluations hit
// that shard's cache, while different pairs spread across the fleet.
func TuneKey(workload, archName string) string {
	if archName == "" {
		archName = "westmere"
	}
	return "tune|" + workload + "|" + archName
}

package fleet

import (
	"fmt"
	"math"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/proxy"
)

// testKeys builds a deterministic corpus of distinct keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("terasort|westmere|key-%d", i)
	}
	return keys
}

// aliveAllBut returns a liveness predicate with the given nodes dead.
func aliveAllBut(dead ...string) func(string) bool {
	down := make(map[string]bool, len(dead))
	for _, d := range dead {
		down[d] = true
	}
	return func(n string) bool { return !down[n] }
}

// TestRingSingleNodeOwnsEverything is the degenerate fleet: with one node
// every key maps to it and it owns the whole keyspace.
func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r := NewRing([]string{"solo"}, DefaultVnodes)
	for _, k := range testKeys(100) {
		owner, ok := r.Owner(k, nil)
		if !ok || owner != "solo" {
			t.Fatalf("key %q: owner %q ok=%v, want solo", k, owner, ok)
		}
	}
	shares := r.Shares(nil)
	if math.Abs(shares["solo"]-1) > 1e-9 {
		t.Fatalf("single node share %g, want 1", shares["solo"])
	}
}

// TestRingOwnerIgnoresConstructionOrder pins determinism: rings built from
// permuted node lists assign identical owners.
func TestRingOwnerIgnoresConstructionOrder(t *testing.T) {
	a := NewRing([]string{"s0", "s1", "s2"}, 64)
	b := NewRing([]string{"s2", "s0", "s1", "s1"}, 64)
	for _, k := range testKeys(500) {
		oa, _ := a.Owner(k, nil)
		ob, _ := b.Owner(k, nil)
		if oa != ob {
			t.Fatalf("key %q: owner differs by construction order (%q vs %q)", k, oa, ob)
		}
	}
}

// TestRingRebalanceMovesOnlyDeadKeyspace is the satellite property: killing
// one node must not move any key owned by a surviving node, and every moved
// key must land on a survivor.
func TestRingRebalanceMovesOnlyDeadKeyspace(t *testing.T) {
	nodes := []string{"s0", "s1", "s2", "s3", "s4"}
	r := NewRing(nodes, DefaultVnodes)
	keys := testKeys(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		owner, ok := r.Owner(k, nil)
		if !ok {
			t.Fatalf("no owner for %q with all nodes alive", k)
		}
		before[k] = owner
	}
	for _, dead := range nodes {
		alive := aliveAllBut(dead)
		moved := 0
		for _, k := range keys {
			after, ok := r.Owner(k, alive)
			if !ok {
				t.Fatalf("no owner for %q with only %q dead", k, dead)
			}
			if after == dead {
				t.Fatalf("key %q assigned to dead node %q", k, dead)
			}
			if before[k] != dead && after != before[k] {
				t.Fatalf("killing %q moved key %q from live owner %q to %q", dead, k, before[k], after)
			}
			if before[k] == dead {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("node %q owned no test keys; corpus too small to exercise rebalance", dead)
		}
	}
}

// TestRingSharesArePartition checks the keyspace shares form a probability
// partition and stay reasonably balanced at the default vnode count.
func TestRingSharesArePartition(t *testing.T) {
	r := NewRing([]string{"s0", "s1", "s2"}, DefaultVnodes)
	for _, alive := range []func(string) bool{nil, aliveAllBut("s1")} {
		shares := r.Shares(alive)
		sum := 0.0
		for _, s := range shares {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("shares sum to %g, want 1 (shares %v)", sum, shares)
		}
	}
	shares := r.Shares(nil)
	for n, s := range shares {
		if s < 0.15 || s > 0.55 {
			t.Errorf("node %s share %.3f is badly unbalanced for 128 vnodes", n, s)
		}
	}
	dead := r.Shares(aliveAllBut("s1"))
	if dead["s1"] != 0 {
		t.Errorf("dead node should hold no keyspace, got %g", dead["s1"])
	}
}

// TestRingNoLiveNode pins the empty-fleet behaviour: no owner, no shares.
func TestRingNoLiveNode(t *testing.T) {
	r := NewRing([]string{"s0", "s1"}, 8)
	if _, ok := r.Owner("k", func(string) bool { return false }); ok {
		t.Fatal("a fully dead ring must report no owner")
	}
	if shares := r.Shares(func(string) bool { return false }); len(shares) != 0 {
		t.Fatalf("a fully dead ring must report no shares, got %v", shares)
	}
	if _, ok := NewRing(nil, 8).Owner("k", nil); ok {
		t.Fatal("an empty ring must report no owner")
	}
}

// TestShardingKeys pins the sharding rule: a run keys on the shape of its
// trace group, so every lane and every group of a shape, whatever its
// chunk size and task count, shares an owner, while anything that reshapes
// the trace moves to its own key.  The default architecture and setting
// are spelled out, and settings the router cannot judge still get a fixed
// key for their owner to reject.
func TestShardingKeys(t *testing.T) {
	for _, w := range proxy.Workloads() {
		base := RunKey(w, "westmere", nil)
		if RunKey(w, "", nil) != RunKey(w, "westmere", core.DefaultSetting()) {
			t.Errorf("%s: omitted arch/setting must shard like their explicit defaults", w)
		}
		sameShape := []core.Setting{
			{"weight": 0.5}, {"weight": 2}, {"chunkSize": 1.5}, {"chunkSize": 0.5, "weight": 1.25},
			{"numTasks": 0.875}, {"numTasks": 1.25, "chunkSize": 2},
		}
		for _, s := range sameShape {
			if got := RunKey(w, "westmere", s); got != base {
				t.Errorf("%s: lane %v keys %q, want its shape's %q", w, s, got, base)
			}
		}
		if RunKey(w, "westmere", core.Setting{"dataSize": 1e-6}) == base {
			t.Errorf("%s: a dataSize below the sample size reshapes the trace and must not share its key", w)
		}
		if RunKey(w, "haswell", nil) == base {
			t.Errorf("%s: architectures must shard apart", w)
		}
	}

	// TeraSort samples 1.5 MiB of a 2 GiB input: dataSize lanes share a key
	// while the sample clamp holds, and one shrinking the input below the
	// sample changes the trace.
	lanes := []core.Setting{nil, {"dataSize": 0.5}, {"dataSize": 1.5, "weight": 0.75}, {"dataSize": 3}}
	for _, s := range lanes {
		if RunKey("terasort", "", s) != RunKey("terasort", "", lanes[0]) {
			t.Errorf("dataSize lane %v inside the sample clamp must share its group's key", s)
		}
	}
	if RunKey("terasort", "", core.Setting{"dataSize": 1e-4}) == RunKey("terasort", "", nil) {
		t.Error("a dataSize below the sample size reshapes the trace and must not share its key")
	}

	// A design-space sweep of one proxy, chunkSize × numTasks × dataSize ×
	// weight with every dataSize inside the sample clamp, is one shape: it
	// maps to one owner of a two-replica ring, so one replica's store serves
	// all its trace groups.
	ring := NewRing([]string{"r0", "r1"}, DefaultVnodes)
	for _, w := range []string{"terasort", "kmeans", "alexnet", "inception"} {
		owners := map[string]bool{}
		for _, chunk := range []float64{0.5, 1.2, 2} {
			for _, tasks := range []float64{0.875, 0.95, 1.125, 1.25} {
				for _, data := range []float64{0.5, 1, 2} {
					for _, weight := range []float64{0.5, 2} {
						s := core.Setting{"chunkSize": chunk, "numTasks": tasks, "dataSize": data, "weight": weight}
						owner, _ := ring.Owner(RunKey(w, "", s), nil)
						owners[owner] = true
					}
				}
			}
		}
		if len(owners) != 1 {
			t.Errorf("%s: a sweep grid of one shape maps to owners %v, want one", w, owners)
		}
	}

	// An unknown workload keys on workload|arch alone, so one owner rejects
	// all its requests; invalid settings key without panicking, and their
	// owner rejects them.
	unknown := RunKey("wordcount", "", core.Setting{"dataSize": 2})
	if unknown != RunKey("wordcount", "westmere", nil) {
		t.Errorf("unknown workload keys %q; want one fixed key per workload and arch", unknown)
	}
	for _, s := range []core.Setting{{"weight": -1}, {"bogus": 3}, {"chunkSize": math.Inf(1)}, {"numTasks": math.NaN()}} {
		_ = RunKey("terasort", "", s)
	}

	if TuneKey("terasort", "") != TuneKey("terasort", "westmere") {
		t.Error("omitted tune arch must shard like the explicit default")
	}
	if TuneKey("terasort", "westmere") == RunKey("terasort", "westmere", nil) {
		t.Error("tune and run keyspaces must not collide")
	}
}

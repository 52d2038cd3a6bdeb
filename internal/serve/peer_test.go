package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
	"dataproxy/pkg/client"
)

// decodeBody decodes a response body into v.
func decodeBody(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// newPeerPair boots two replicas that gossip at each other.  The gossip
// interval is effectively infinite so tests drive rounds deterministically
// via gossipRound().
func newPeerPair(t *testing.T) (a, b *Server, aURL, bURL string) {
	t.Helper()
	bSrv, bTS := newTestServer(t, Config{Name: "s1", GossipInterval: time.Hour})
	aSrv, aTS := newTestServer(t, Config{
		Name:           "s0",
		Peers:          []Peer{{Name: "s1", URL: bTS.URL}},
		GossipInterval: time.Hour,
	})
	// Point b back at a for the reverse direction.
	bSrv.peers = newPeerManager(bSrv, []Peer{{Name: "s0", URL: aTS.URL}}, time.Hour)
	return aSrv, bSrv, aTS.URL, bTS.URL
}

// fabricatedMetrics builds a distinct valid metric vector per seed.
func fabricatedMetrics(seed float64) perf.Metrics {
	return perf.Metrics{Runtime: seed, IPC: 0.5, MIPS: 100 * seed}
}

// TestGossipSpreadsCompletedEntries seeds one replica's cache and drives a
// gossip round: the peer must end up able to answer the same keys from
// cache, and a second round must not re-send acknowledged entries.
func TestGossipSpreadsCompletedEntries(t *testing.T) {
	a, b, _, _ := newPeerPair(t)

	keys := []string{"bench|fp|k1", "bench|fp|k2", "bench|fp|k3"}
	for i, k := range keys {
		if !a.sched.memo.Restore(k, fabricatedMetrics(float64(i+1))) {
			t.Fatalf("seeding %s failed", k)
		}
	}

	a.peers.gossipRound()
	for i, k := range keys {
		m, ok, err := b.sched.memo.PeekBytes([]byte(k))
		if !ok || err != nil {
			t.Fatalf("peer missing gossiped key %s (ok=%v err=%v)", k, ok, err)
		}
		if m.Runtime != float64(i+1) {
			t.Errorf("key %s: runtime %g, want %g", k, m.Runtime, float64(i+1))
		}
	}
	sentAfterFirst := a.peers.sentTotal.Load()
	if sentAfterFirst != int64(len(keys)) {
		t.Fatalf("sent %d entries, want %d", sentAfterFirst, len(keys))
	}

	// Second round: everything is acknowledged, nothing new goes out.
	a.peers.gossipRound()
	if got := a.peers.sentTotal.Load(); got != sentAfterFirst {
		t.Errorf("second round re-sent entries: %d -> %d", sentAfterFirst, got)
	}
	if !a.peers.peers[0].healthy.Load() {
		t.Error("peer should be marked healthy after successful rounds")
	}
}

// TestGossipNeverOverwritesLiveEntry is the satellite property: a pushed
// entry for a key the receiver already holds must be skipped, keeping the
// receiver's own measurement authoritative.
func TestGossipNeverOverwritesLiveEntry(t *testing.T) {
	_, b, _, bURL := newPeerPair(t)

	const key = "bench|fp|contested"
	local := fabricatedMetrics(7)
	if !b.sched.memo.Restore(key, local) {
		t.Fatal("seeding receiver failed")
	}

	foreign := fabricatedMetrics(99)
	data, err := foreign.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := snapshot.Encode(&body, &snapshot.State{
		MemoEntries: []snapshot.MemoEntry{{Key: key, Metrics: data}},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(bURL+"/v1/peer/entries", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer exchange status %d", resp.StatusCode)
	}
	var ex client.PeerExchangeResponse
	if err := decodeBody(resp, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Received != 1 || ex.Installed != 0 || ex.Skipped != 1 {
		t.Fatalf("disposition %+v, want received=1 installed=0 skipped=1", ex)
	}
	m, ok, _ := b.sched.memo.PeekBytes([]byte(key))
	if !ok || m.Runtime != local.Runtime {
		t.Fatalf("live entry was disturbed: runtime %g, want %g", m.Runtime, local.Runtime)
	}
}

// TestGossipBatchIsBounded pins the anti-entropy bound: one round sends at
// most the peer manager's batch of entries per peer, and later rounds drain
// the rest.
func TestGossipBatchIsBounded(t *testing.T) {
	a, _, _, _ := newPeerPair(t)
	a.peers.batch = 2

	for _, k := range []string{"k1", "k2", "k3", "k4", "k5"} {
		a.sched.memo.Restore("bench|fp|"+k, fabricatedMetrics(1))
	}
	a.peers.gossipRound()
	if got := a.peers.sentTotal.Load(); got != 2 {
		t.Fatalf("first bounded round sent %d entries, want 2", got)
	}
	a.peers.gossipRound()
	a.peers.gossipRound()
	if got := a.peers.sentTotal.Load(); got != 5 {
		t.Fatalf("three bounded rounds sent %d entries, want all 5", got)
	}
}

// TestPeerEntriesRejectsDamage checks a corrupt exchange body is a
// bad_request envelope, and an entry with invalid metrics is skipped rather
// than installed.
func TestPeerEntriesRejectsDamage(t *testing.T) {
	_, ts := newTestServer(t, Config{Name: "solo"})

	resp, err := http.Post(ts.URL+"/v1/peer/entries", "application/octet-stream",
		strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, want 400", resp.StatusCode)
	}
	var env client.ErrorEnvelope
	if err := decodeBody(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != client.CodeBadRequest {
		t.Fatalf("corrupt body: code %q, want bad_request", env.Error.Code)
	}

	// An undecodable or invariant-violating entry is skipped, not installed.
	var body bytes.Buffer
	if err := snapshot.Encode(&body, &snapshot.State{MemoEntries: []snapshot.MemoEntry{
		{Key: "bad-json", Metrics: []byte(`{`)},
		{Key: "bad-invariant", Metrics: []byte(`{"runtime_seconds": -1}`)},
	}}); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/v1/peer/entries", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var ex client.PeerExchangeResponse
	if err := decodeBody(resp2, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Installed != 0 || ex.Skipped != 2 {
		t.Fatalf("invalid entries disposition %+v, want installed=0 skipped=2", ex)
	}
}

// TestClusterEndpointReportsPeers checks GET /v1/cluster through the typed
// client: a replica reports itself, its role, and its gossip partners with
// traffic counters.
func TestClusterEndpointReportsPeers(t *testing.T) {
	a, _, aURL, _ := newPeerPair(t)
	a.sched.memo.Restore("bench|fp|k", fabricatedMetrics(1))
	a.peers.gossipRound()

	cl, err := client.New(aURL).Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Self != "s0" || cl.Role != client.RoleReplica {
		t.Fatalf("cluster identity %+v", cl)
	}
	if len(cl.Peers) != 1 || cl.Peers[0].Name != "s1" || !cl.Peers[0].Healthy || cl.Peers[0].EntriesSent != 1 {
		t.Fatalf("cluster peers %+v", cl.Peers)
	}

	// Gossip totals are in /metrics, zeros-stable exposition included.
	text, err := client.New(aURL).MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.ParseMetric(text, "proxyd_gossip_sent_entries_total"); !ok || v != 1 {
		t.Errorf("gossip sent metric = %v, %v", v, ok)
	}
	if v, ok := client.ParseMetric(text, `proxyd_peer_healthy{peer="s1"}`); !ok || v != 1 {
		t.Errorf("peer health metric = %v, %v", v, ok)
	}
}

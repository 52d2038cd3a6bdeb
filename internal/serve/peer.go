package serve

// Cache peering: a proxyd replica configured with peers pushes its completed
// memo entries to them through a bounded anti-entropy exchange, so a setting
// simulated on one shard becomes a warm cache hit fleet-wide without any
// replica ever simulating it again.  The exchange reuses the
// internal/snapshot codec as the wire format (the same checksummed records
// the crash-safety snapshot uses) and the receiver holds the same line as a
// disk restore: every entry re-proves its invariants before installation and
// a live memo entry is NEVER overwritten — gossip is advisory, local
// measurements are authoritative.

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/apihttp"
	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
	"dataproxy/internal/tuner"
	"dataproxy/pkg/client"
)

// Peer identifies one gossip partner of a replica.
type Peer struct {
	// Name is the partner's shard name (its own Config.Name).
	Name string
	// URL is the partner's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// peerHeader carries the sender's shard name on a peer exchange so the
// receiver can attribute installed entries per peer in /v1/cluster.
const peerHeader = "X-Proxyd-Peer"

// peerState is one partner's book-keeping on the sending side.
type peerState struct {
	name string
	url  string

	healthy atomic.Bool

	// mu guards acked, the keys this peer has acknowledged receiving.  The
	// set is cleared when it outgrows several cache generations — entries are
	// then re-offered and the receiver's Restore dedups them.
	mu    sync.Mutex
	acked map[string]struct{}

	entriesSent      atomic.Int64 // entries this replica pushed to the peer
	entriesInstalled atomic.Int64 // entries from the peer this replica installed
}

// alreadySent reports whether the peer has acknowledged key.
func (p *peerState) alreadySent(key string) bool {
	p.mu.Lock()
	_, ok := p.acked[key]
	p.mu.Unlock()
	return ok
}

// markSent records keys the peer acknowledged, resetting the set if it has
// outgrown bound (a full reset only costs re-offering; it can never install
// stale data because the receiver's memo refuses overwrites).
func (p *peerState) markSent(keys []string, bound int) {
	p.mu.Lock()
	if len(p.acked)+len(keys) > bound {
		p.acked = make(map[string]struct{}, len(keys))
	}
	for _, k := range keys {
		p.acked[k] = struct{}{}
	}
	p.mu.Unlock()
}

// peerManager owns a replica's gossip: one background loop pushes bounded
// entry batches to every configured peer and tracks per-peer health.
type peerManager struct {
	srv      *Server
	peers    []*peerState // sorted by name
	byName   map[string]*peerState
	hc       *http.Client
	interval time.Duration
	batch    int

	rounds         atomic.Int64
	failures       atomic.Int64
	sentTotal      atomic.Int64
	installedTotal atomic.Int64
	skippedTotal   atomic.Int64
}

func newPeerManager(s *Server, peers []Peer, interval time.Duration) *peerManager {
	pm := &peerManager{
		srv:      s,
		byName:   make(map[string]*peerState, len(peers)),
		hc:       &http.Client{Timeout: 10 * time.Second},
		interval: interval,
		batch:    gossipBatch,
	}
	for _, p := range peers {
		ps := &peerState{name: p.Name, url: p.URL, acked: make(map[string]struct{})}
		pm.peers = append(pm.peers, ps)
		pm.byName[p.Name] = ps
	}
	sort.Slice(pm.peers, func(i, j int) bool { return pm.peers[i].name < pm.peers[j].name })
	return pm
}

// gossipLoop runs until the server stops: one bounded exchange per peer per
// tick.  Like the snapshot loop it is a single long-lived goroutine and
// never touches a request goroutine or the helper pool.
func (pm *peerManager) gossipLoop() {
	defer pm.srv.done.Done()
	ticker := time.NewTicker(pm.interval)
	defer ticker.Stop()
	for {
		select {
		case <-pm.srv.stop:
			return
		case <-ticker.C:
			pm.gossipRound()
		}
	}
}

// gossipRound pushes one batch of unacknowledged entries to each peer.
func (pm *peerManager) gossipRound() {
	pm.rounds.Add(1)
	for _, p := range pm.peers {
		entries := pm.srv.sched.memo.ExportLimited(pm.batch, p.alreadySent)
		if len(entries) == 0 {
			p.healthy.Store(pm.probe(p))
			continue
		}
		if err := pm.exchange(p, entries); err != nil {
			pm.failures.Add(1)
			p.healthy.Store(false)
			continue
		}
		p.healthy.Store(true)
	}
}

// probe checks a peer's liveness when there is nothing to send, so the
// /v1/cluster health view stays fresh between exchanges.
func (pm *peerManager) probe(p *peerState) bool {
	resp, err := pm.hc.Get(p.url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// exchange POSTs one entry batch to the peer and records the acknowledged
// keys.  The body is a snapshot-codec State carrying only MemoEntries.
func (pm *peerManager) exchange(p *peerState, entries []tuner.ExportedEntry) error {
	st := &snapshot.State{}
	keys := make([]string, len(entries))
	for i, e := range entries {
		data, err := e.Metrics.MarshalJSON()
		if err != nil {
			return fmt.Errorf("serve: encoding gossip entry %q: %w", e.Key, err)
		}
		st.MemoEntries = append(st.MemoEntries, snapshot.MemoEntry{Key: e.Key, Metrics: data})
		keys[i] = e.Key
	}
	var body bytes.Buffer
	if err := snapshot.Encode(&body, st); err != nil {
		return fmt.Errorf("serve: encoding gossip batch: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, p.url+"/v1/peer/entries", &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(peerHeader, pm.srv.cfg.Name)
	resp, err := pm.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: peer %s rejected gossip: HTTP %d", p.name, resp.StatusCode)
	}
	_ = raw // the ack is the 200; per-entry disposition is the receiver's book-keeping
	p.markSent(keys, 4*pm.srv.cfg.MaxCacheEntries)
	p.entriesSent.Add(int64(len(keys)))
	pm.sentTotal.Add(int64(len(keys)))
	return nil
}

// handlePeerEntries serves POST /v1/peer/entries: install the pushed memo
// entries that are new and valid, skip the rest, and report the disposition.
// Installation follows the restore discipline exactly — decode, re-validate,
// and Memo.Restore, which refuses to replace any existing entry, measured or
// in flight.  Peer exchange stays available while draining: it sheds no
// simulation work, and a draining replica's cache is precisely the one worth
// spreading before it exits.
func (s *Server) handlePeerEntries(w http.ResponseWriter, r *http.Request) {
	st, err := snapshot.Decode(http.MaxBytesReader(w, r.Body, apihttp.MaxBody))
	if err != nil {
		apihttp.Fail(w, http.StatusBadRequest, fmt.Errorf("serve: undecodable peer exchange: %w", err))
		return
	}
	var installed, skipped int
	for _, e := range st.MemoEntries {
		metrics, err := perf.DecodeMetrics(e.Metrics)
		if err != nil {
			skipped++
			continue
		}
		if s.sched.memo.Restore(e.Key, metrics) {
			installed++
		} else {
			skipped++
		}
	}
	if s.peers != nil {
		s.peers.installedTotal.Add(int64(installed))
		s.peers.skippedTotal.Add(int64(skipped))
		if p := s.peers.byName[r.Header.Get(peerHeader)]; p != nil {
			p.entriesInstalled.Add(int64(installed))
			p.healthy.Store(true) // it just spoke to us
		}
	}
	if installed > 0 {
		log.Printf("proxyd: installed %d gossiped cache entries (%d skipped) from %q",
			installed, skipped, r.Header.Get(peerHeader))
	}
	apihttp.WriteJSON(w, http.StatusOK, client.PeerExchangeResponse{
		Received:  len(st.MemoEntries),
		Installed: installed,
		Skipped:   skipped,
	})
}

// handleCluster serves GET /v1/cluster on a replica: its shard name, the
// replica role, and its current view of each gossip partner.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	out := client.ClusterResponse{Self: s.cfg.Name, Role: client.RoleReplica, Peers: []client.PeerInfo{}}
	if s.peers != nil {
		for _, p := range s.peers.peers {
			out.Peers = append(out.Peers, client.PeerInfo{
				Name:             p.name,
				URL:              p.url,
				Healthy:          p.healthy.Load(),
				EntriesSent:      p.entriesSent.Load(),
				EntriesInstalled: p.entriesInstalled.Load(),
			})
		}
	}
	apihttp.WriteJSON(w, http.StatusOK, out)
}

// writeGossipMetrics renders the gossip counters and per-peer health gauges.
// The totals are emitted even without peers (as zeros) so the exposition is
// stable across fleet and single-node deployments.
func (s *Server) writeGossipMetrics(w io.Writer) {
	var rounds, failures, sent, installed, skipped int64
	if s.peers != nil {
		rounds = s.peers.rounds.Load()
		failures = s.peers.failures.Load()
		sent = s.peers.sentTotal.Load()
		installed = s.peers.installedTotal.Load()
		skipped = s.peers.skippedTotal.Load()
	}
	fmt.Fprintf(w, "proxyd_gossip_rounds_total %d\n", rounds)
	fmt.Fprintf(w, "proxyd_gossip_failures_total %d\n", failures)
	fmt.Fprintf(w, "proxyd_gossip_sent_entries_total %d\n", sent)
	fmt.Fprintf(w, "proxyd_gossip_installed_entries_total %d\n", installed)
	fmt.Fprintf(w, "proxyd_gossip_skipped_entries_total %d\n", skipped)
	if s.peers != nil {
		for _, p := range s.peers.peers {
			fmt.Fprintf(w, "proxyd_peer_healthy{peer=%q} %d\n", p.name, boolGauge(p.healthy.Load()))
		}
	}
}

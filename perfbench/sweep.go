package main

import (
	"context"
	"fmt"
	"time"

	"dataproxy/pkg/client"
)

// sweepLoad is a cold design-space sweep through the fleet: one connection
// sends one batch per proxy per round, each a fresh seeded grid, so every
// setting is simulated and written into the memo, and each simulated trace
// is shared by the lanes of its group. One op is one setting.
type sweepLoad struct {
	seed   int64
	f      *fleetProc
	rounds int // timed rounds sent so far
	sent   []sentBatch
	d      *digest

	groups    int     // trace groups sent in the last phase
	execDelta float64 // trace groups the replicas simulated in the last phase
}

type sentBatch struct {
	workload string
	settings []map[string]float64
	metrics  [][]byte
}

func newSweep(seed int64) *sweepLoad { return &sweepLoad{seed: seed} }

// setup boots the fleet and sends one discarded batch per proxy on a grid
// disjoint from the timed rounds', so pools and first-use paths are filled.
func (s *sweepLoad) setup(*tracer) error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	s.f, s.d = f, newDigest()
	c, transport := f.newClient(1)
	defer transport.CloseIdleConnections()
	for p, w := range fleetWorkloads {
		batch := warmBatch(s.seed, p)
		resp, err := c.RunBatch(context.Background(), client.RunRequest{Workload: w, Settings: batch})
		if err == nil {
			_, err = checkBatch(len(batch), resp)
		}
		if err != nil {
			return fmt.Errorf("warm-up batch for %s: %w", w, err)
		}
		for _, r := range resp.Results {
			s.d.add(canonical(r.Metrics))
		}
	}
	return nil
}

// run sends whole rounds until the deadline; at least one round always runs.
func (s *sweepLoad) run(tr *tracer, deadline time.Time, ph *phase) error {
	s.f.slot.Store(tr)
	defer s.f.slot.Store(nil)
	c, transport := s.f.newClient(1)
	defer transport.CloseIdleConnections()
	exec0, err := s.f.executed()
	if err != nil {
		return err
	}
	s.groups = 0
	for first := true; first || time.Now().Before(deadline); first = false {
		for p, w := range fleetWorkloads {
			batch := sweepBatch(s.seed, s.rounds, p)
			s.groups += s.f.groups(w, batch)
			id := tr.open("client.run", -1, ph.ops+1)
			t0 := time.Now()
			resp, err := c.RunBatch(context.Background(), client.RunRequest{Workload: w, Settings: batch})
			ph.lat = append(ph.lat, time.Since(t0))
			tr.close(id)
			ph.ops += int64(len(batch))
			if err != nil {
				ph.fail(int64(len(batch)), fmt.Errorf("%s batch of round %d: %w", w, s.rounds, err))
				continue
			}
			failed, err := checkBatch(len(batch), resp)
			ph.fail(int64(failed), err)
			sb := sentBatch{workload: w, settings: batch}
			for _, r := range resp.Results {
				m := canonical(r.Metrics)
				sb.metrics = append(sb.metrics, m)
				ph.hits += btoi(r.Coalesced)
				if s.rounds == 0 {
					s.d.add(m)
				}
			}
			ph.answers += len(resp.Results)
			s.sent = append(s.sent, sb)
		}
		s.rounds++
		ph.mark()
	}
	exec1, err := s.f.executed()
	s.execDelta = exec1 - exec0
	return err
}

// finish checks that every batch answered in request order: each setting,
// read back on its own, must be a cache hit with the bytes its batch
// returned at that setting's position. It then scores every result.
func (s *sweepLoad) finish(out *outcome) error {
	c, transport := s.f.newClient(1)
	defer transport.CloseIdleConnections()
	results := map[string][][]byte{}
	for _, sb := range s.sent {
		if len(sb.metrics) != len(sb.settings) {
			continue // already counted as failed by checkBatch
		}
		for i, m := range sb.metrics {
			resp, err := c.Run(context.Background(), client.RunRequest{Workload: sb.workload, Setting: sb.settings[i]})
			if err == nil {
				err = checkHit(resp, m)
			}
			if err != nil {
				out.fail(1, fmt.Errorf("%s read-back of setting %d: %w", sb.workload, i, err))
			}
		}
		results[sb.workload] = append(results[sb.workload], sb.metrics...)
	}
	out.digest = s.d
	out.digestOf = "warm-up batches and timed round 0"
	return scoreResults(results, out)
}

func (s *sweepLoad) layers(tr *tracer, ph *phase, m map[string]float64) {
	fleetLayers(tr, ph, m)
	m["fleet.sims_per_group"] = s.execDelta / float64(s.groups)
}

func (s *sweepLoad) close() {
	if s.f != nil {
		s.f.close()
	}
}

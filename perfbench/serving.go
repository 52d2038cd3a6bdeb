package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dataproxy/pkg/client"
)

// serveLoad is warm reads through the fleet: set-up warms both replicas with
// a seeded universe far below the cache cap, then conns closed-loop callers
// send single-setting requests with zipfian popularity. Nothing is
// simulated in the timed phase. One op is one request.
type serveLoad struct {
	seed  int64
	conns int
	f     *fleetProc
	univ  [][]map[string]float64 // per proxy, per setting
	warm  [][][]byte             // metric bytes the warm-up got
	d     *digest
}

func newServe(seed int64, conns int) *serveLoad { return &serveLoad{seed: seed, conns: conns} }

func (s *serveLoad) setup(*tracer) error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	s.f, s.d = f, newDigest()
	s.univ, s.warm = nil, nil
	c, transport := f.newClient(1)
	defer transport.CloseIdleConnections()
	for p, w := range fleetWorkloads {
		u := universe(s.seed, p)
		resp, err := c.RunBatch(context.Background(), client.RunRequest{Workload: w, Settings: u})
		if err == nil {
			_, err = checkBatch(len(u), resp)
		}
		if err != nil {
			return fmt.Errorf("warming %s: %w", w, err)
		}
		var raws [][]byte
		for _, r := range resp.Results {
			m := canonical(r.Metrics)
			raws = append(raws, m)
			s.d.add(m)
		}
		s.univ, s.warm = append(s.univ, u), append(s.warm, raws)
	}
	return nil
}

// serveWindows is how many windows the timed phase is cut into.
const serveWindows = 20

func (s *serveLoad) run(tr *tracer, deadline time.Time, ph *phase) error {
	s.f.slot.Store(tr)
	defer s.f.slot.Store(nil)
	c, transport := s.f.newClient(s.conns)
	defer transport.CloseIdleConnections()
	perProxy := len(s.univ[0])
	conns := make([]phase, s.conns)
	start := ph.winStart
	ends := make([][]time.Duration, s.conns) // completion time of each op, since start
	var wg sync.WaitGroup
	for k := range conns {
		wg.Add(1)
		go func(k int, cp *phase) {
			defer wg.Done()
			pick := newPicker(s.seed, k, perProxy*len(s.univ))
			for time.Now().Before(deadline) {
				idx := pick.next()
				p, i := idx/perProxy, idx%perProxy
				cp.ops++
				id := tr.open("client.run", -1, int64(k)<<40|cp.ops)
				t0 := time.Now()
				resp, err := c.Run(context.Background(), client.RunRequest{Workload: fleetWorkloads[p], Setting: s.univ[p][i]})
				cp.lat = append(cp.lat, time.Since(t0))
				ends[k] = append(ends[k], time.Since(start))
				tr.close(id)
				if err == nil {
					cp.hits += btoi(resp.Coalesced)
					cp.answers++
					err = checkHit(resp, s.warm[p][i])
				}
				if err != nil {
					cp.fail(1, fmt.Errorf("%s setting %d: %w", fleetWorkloads[p], i, err))
				}
			}
		}(k, &conns[k])
	}

	// Cut windows on a clock: each holds the ops that completed in it.
	length := deadline.Sub(start)
	bounds := []time.Duration{0}
	cpus := []time.Duration{ph.winCPU}
	for i := 1; i <= serveWindows; i++ {
		time.Sleep(time.Until(start.Add(length * time.Duration(i) / serveWindows)))
		bounds, cpus = append(bounds, time.Since(start)), append(cpus, cpuTime())
	}
	wg.Wait()
	ph.windows = make([]window, serveWindows)
	for i := range ph.windows {
		ph.windows[i] = window{wall: bounds[i+1] - bounds[i], cpu: cpus[i+1] - cpus[i]}
	}
	for k := range conns {
		for j, end := range ends[k] {
			if i := sort.Search(serveWindows, func(i int) bool { return bounds[i+1] > end }); i < serveWindows {
				ph.windows[i].ops++
				ph.windows[i].lat = append(ph.windows[i].lat, conns[k].lat[j])
			}
		}
		ph.merge(&conns[k])
	}
	return nil
}

// finish scores the warmed universe, the results every read returned.
func (s *serveLoad) finish(out *outcome) error {
	results := map[string][][]byte{}
	for p, w := range fleetWorkloads {
		results[w] = s.warm[p]
	}
	out.digest = s.d
	out.digestOf = "warmed universe"
	return scoreResults(results, out)
}

func (s *serveLoad) layers(tr *tracer, ph *phase, m map[string]float64) {
	fleetLayers(tr, ph, m)
}

func (s *serveLoad) close() {
	if s.f != nil {
		s.f.close()
	}
}

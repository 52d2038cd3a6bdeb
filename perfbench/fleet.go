package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dataproxy/internal/core"
	"dataproxy/internal/fleet"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/serve"
	"dataproxy/internal/sim"
	"dataproxy/internal/workloads"
	"dataproxy/pkg/client"
)

// fleetProc is a proxyd fleet inside this process: two replicas without
// gossip peers behind a router, each serving on its own loopback listener.
type fleetProc struct {
	slot     atomic.Pointer[tracer] // tracer of the traced phase, if any
	replicas []*serve.Server
	replURLs []string
	router   *fleet.Router
	url      string
	servers  []*http.Server
	wg       sync.WaitGroup
	proxies  map[string]*core.Benchmark
}

func startFleet() (*fleetProc, error) {
	f := &fleetProc{proxies: map[string]*core.Benchmark{}}
	var backends []fleet.Backend
	for i := 0; i < 2; i++ {
		s, err := serve.New(serve.Config{Name: fmt.Sprintf("r%d", i)})
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, s)
		url, err := f.listen(traced("serve.handler", &f.slot, s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.replURLs = append(f.replURLs, url)
		backends = append(backends, fleet.Backend{Name: fmt.Sprintf("r%d", i), URL: url})
	}
	rt, err := fleet.NewRouter(fleet.Config{Backends: backends})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.url, err = f.listen(traced("fleet.handler", &f.slot, rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	for _, w := range fleetWorkloads {
		if f.proxies[w], err = proxy.ForWorkload(w); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleetProc) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, the router's probe loop and the replicas'
// dispatchers, and waits for every serving goroutine to return.
func (f *fleetProc) close() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.wg.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.replicas {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// newClient returns a typed client of the router that keeps at most conns
// connections open and never retries, so a shed request counts as failed.
func (f *fleetProc) newClient(conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return client.New(f.url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Minute})), tr
}

// executed sums proxyd_run_executed_total, the trace groups each replica
// simulated, over both replicas.
func (f *fleetProc) executed() (float64, error) {
	var sum float64
	for _, url := range f.replURLs {
		text, err := client.New(url).MetricsText(context.Background())
		if err != nil {
			return 0, err
		}
		v, ok := client.ParseMetric(text, "proxyd_run_executed_total")
		if !ok {
			return 0, errors.New("replica exposes no proxyd_run_executed_total")
		}
		sum += v
	}
	return sum, nil
}

// groups counts the distinct trace groups of a batch, the unit a replica
// simulates once.
func (f *fleetProc) groups(workload string, settings []map[string]float64) int {
	keys := map[string]bool{}
	for _, s := range settings {
		keys[f.proxies[workload].TraceKey(core.Setting(s))] = true
	}
	return len(keys)
}

// fleetLayers reports the per-op self time of the client, router and
// replica layers from the traced phase's spans, and the hit ratio.
func fleetLayers(tr *tracer, ph *phase, m map[string]float64) {
	cli := tr.named("client.run")
	cliBusy := spanSum(cli)
	routerBusy := busy(tr.named("fleet.handler"), cli)
	replicaBusy := busy(tr.named("serve.handler"), cli)
	perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(ph.ops) }
	m["client.self_ms"] = perOp(cliBusy - routerBusy)
	m["fleet.self_ms"] = perOp(routerBusy - replicaBusy)
	m["serve.handler_ms"] = perOp(replicaBusy)
	m["serve.hit_ratio"] = ratio(ph.hits, ph.answers)
}

// realTargets measures the real workloads of the fleet proxies, against
// which the fleet workloads score the results they received.
func realTargets() (map[string]sim.Report, error) {
	out := map[string]sim.Report{}
	for _, w := range fleetWorkloads {
		spec, err := workloads.ByShortName(w)
		if err != nil {
			return nil, err
		}
		if out[w], err = measureReal(spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scoreResults sets the mean accuracy and the geometric-mean speedup of the
// given results against the real workloads.
func scoreResults(results map[string][][]byte, out *outcome) error {
	reals, err := realTargets()
	if err != nil {
		return err
	}
	var accSum, logSpeedup float64
	var n int
	for _, w := range fleetWorkloads {
		for _, raw := range results[w] {
			m, err := decodeMetrics(raw)
			if err != nil {
				return err
			}
			accSum += perf.CompareMetrics(reals[w].Metrics, m, nil).Average()
			logSpeedup += math.Log(sim.Speedup(reals[w].Runtime, m.Runtime))
			n++
		}
	}
	out.accuracy, out.speedup = accSum/float64(n), math.Exp(logSpeedup/float64(n))
	return nil
}

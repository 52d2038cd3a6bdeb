package main

import (
	"fmt"
	"math"
	"time"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
	"dataproxy/internal/tuner"
	"dataproxy/internal/workloads"
)

// qualify is the paper's pipeline (proxygen -all) in process: set-up
// measures the real workloads on the five-node Westmere cluster, and each op
// tunes one proxy against its real workload on the Westmere proxy pool.
// The paper's five workloads are fixed, so the seed changes nothing here.
type qualify struct {
	specs   []workloads.Spec
	proxies []*core.Benchmark
	targets []sim.Report
	pool    *sim.ClusterPool

	results []tuner.Result // of the last pass
}

func newQualify(specs []workloads.Spec) *qualify { return &qualify{specs: specs} }

func (q *qualify) setup(tr *tracer) error {
	proto, err := sim.NewCluster(sim.SingleNode(arch.Westmere(), 0))
	if err != nil {
		return err
	}
	q.pool = sim.NewClusterPool(proto)
	for _, spec := range q.specs {
		b, err := proxy.ForWorkload(spec.ShortName)
		if err != nil {
			return err
		}
		id := tr.open("workloads.run", -1, 0)
		rep, err := measureReal(spec)
		tr.close(id)
		if err != nil {
			return err
		}
		q.proxies = append(q.proxies, b)
		q.targets = append(q.targets, rep)
	}
	return nil
}

func measureReal(spec workloads.Spec) (sim.Report, error) {
	cluster, err := sim.NewCluster(sim.FiveNodeWestmere())
	if err != nil {
		return sim.Report{}, err
	}
	if err := spec.Run(cluster); err != nil {
		return sim.Report{}, fmt.Errorf("measuring real %s: %w", spec.Name, err)
	}
	return cluster.Report(spec.Name), nil
}

// run tunes the proxies in paper order, pass after pass, until the deadline;
// at least one whole pass always runs. The tunes differ in cost about 50×,
// so a percentile over them would mix kinds of work: the latency sample is
// the pass, the time the pipeline makes its user wait.
func (q *qualify) run(tr *tracer, deadline time.Time, ph *phase) error {
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		q.results = q.results[:0]
		start := time.Now()
		for i, b := range q.proxies {
			id := tr.open("tuner.tune", -1, ph.ops+1)
			res, err := tuner.TuneWithPool(q.pool, b, q.targets[i].Metrics, tuner.Options{}, tuner.NewMemo())
			tr.close(id)
			ph.ops++
			if err == nil {
				err = checkTuned(q.targets[i].Metrics, res)
			}
			if err != nil {
				ph.fail(1, fmt.Errorf("tuning %s: %w", b.Name, err))
			}
			q.results = append(q.results, res)
		}
		ph.lat = append(ph.lat, time.Since(start))
		ph.mark()
	}
	return nil
}

func (q *qualify) finish(out *outcome) error {
	d := newDigest()
	var accSum, logSpeedup float64
	for i, res := range q.results {
		accSum += res.Report.Average()
		logSpeedup += math.Log(sim.Speedup(q.targets[i].Runtime, res.ProxyMetrics.Runtime))
		if err := d.addMetrics(q.targets[i].Metrics); err != nil {
			return err
		}
		if err := d.addMetrics(res.ProxyMetrics); err != nil {
			return err
		}
	}
	n := float64(len(q.results))
	out.accuracy, out.speedup = accSum/n, math.Exp(logSpeedup/n)
	out.digest = d
	out.digestOf = "real and tuned proxy metrics of the five workloads"
	return nil
}

// layers reports the tuner's counts for the last pass and the span times of
// real-workload measurement and of each tune.
func (q *qualify) layers(tr *tracer, _ *phase, m map[string]float64) {
	m["workloads.real_s"] = spanSum(tr.named("workloads.run")).Seconds()
	tunes := tr.named("tuner.tune")
	for i, s := range tunes[max(len(tunes)-len(q.specs), 0):] {
		m["tuner.tune_s."+q.specs[i].ShortName] = time.Duration(s.end - s.start).Seconds()
	}
	var sims, hits, converged int
	for _, res := range q.results {
		sims += res.Evaluations
		hits += res.MemoHits
		if res.Converged {
			converged++
		}
	}
	m["tuner.sims"] = float64(sims)
	m["tuner.memo_hit_ratio"] = ratio(hits, hits+sims)
	m["tuner.converged"] = float64(converged)
}

func (q *qualify) close() {}

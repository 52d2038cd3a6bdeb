package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// fleetWorkloads are the proxies the fleet workloads send. PageRank is left
// out: one of its trace groups costs seconds, and qualify already covers it.
var fleetWorkloads = []string{"terasort", "kmeans", "alexnet", "inception"}

// stream returns the random stream of one labelled input family. Every
// generated input is a pure function of the seed and its label and index,
// so a run's inputs never depend on how long it ran.
func stream(seed int64, label string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// between draws uniformly from [lo, hi).
func between(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// grid builds shapes × lanes settings: shapes trace-shaping combinations
// (chunkSize × numTasks) each carrying lanes extrapolation lanes (dataSize ×
// weight). Every fleet proxy has 8 base tasks, and the numTasks factors are
// drawn from ranges that give 7 or 9 tasks, so every seed simulates the same
// amount of work; the chunk sizes stay above every proxy's sample size, where
// they change the trace key but not the cost. The lanes of a shape draw
// dataSize and weight from strata that together cover their ranges, so the
// results' runtimes spread alike for every seed. dataSize is drawn from
// [dataLo, dataHi), which lets set-up use a range the timed phase never
// touches.
func grid(r *rand.Rand, shapes, lanes int, dataLo, dataHi float64) []map[string]float64 {
	stratum := func(l int, lo, hi float64) float64 {
		return lo + (hi-lo)*(float64(l)+r.Float64())/float64(lanes)
	}
	out := make([]map[string]float64, 0, shapes*lanes)
	for s := 0; s < shapes; s++ {
		chunk := between(r, 0.5, 2)
		tasks := between(r, 0.875, 1)
		if s%2 == 1 {
			tasks = between(r, 1.125, 1.25)
		}
		weights := r.Perm(lanes)
		for l := 0; l < lanes; l++ {
			out = append(out, map[string]float64{
				"chunkSize": chunk,
				"numTasks":  tasks,
				"dataSize":  stratum(l, dataLo, dataHi),
				"weight":    stratum(weights[l], 0.5, 2),
			})
		}
	}
	return out
}

// sweepBatch is the batch the sweep workload sends for proxy p in timed
// round k: 4 trace shapes × 8 extrapolation lanes.
func sweepBatch(seed int64, k, p int) []map[string]float64 {
	return grid(stream(seed, "sweep/"+fleetWorkloads[p], k), 4, 8, 0.5, 2)
}

// warmBatch is the batch set-up sends for proxy p before timing. Its
// dataSize range is disjoint from the timed rounds', so no timed setting is
// ever warm.
func warmBatch(seed int64, p int) []map[string]float64 {
	return grid(stream(seed, "warm/"+fleetWorkloads[p], 0), 2, 4, 2, 2.5)
}

// universe is the set of settings the serve workload warms and then reads
// for proxy p: 2 trace shapes × 32 lanes.
func universe(seed int64, p int) []map[string]float64 {
	return grid(stream(seed, "universe/"+fleetWorkloads[p], 0), 2, 32, 0.5, 2)
}

// zipfS is the skew of the serve workload's setting popularity.
const zipfS = 1.1

// picker draws the serve workload's request stream for one connection:
// zipfian popularity over a seeded ranking of the n universe entries.
type picker struct {
	rank []int
	zipf *rand.Zipf
}

func newPicker(seed int64, conn, n int) *picker {
	rank := stream(seed, "rank", 0).Perm(n)
	return &picker{rank: rank, zipf: rand.NewZipf(stream(seed, "zipf", conn), zipfS, 1, uint64(n-1))}
}

func (p *picker) next() int { return p.rank[p.zipf.Uint64()] }

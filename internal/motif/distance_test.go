package motif

import (
	"fmt"
	"math"
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/datagen"
	"dataproxy/internal/sim"
)

// denseEuclidean and denseCosine are the reference distance motifs: they
// sum over every dimension, zero or not.  The registered motifs skip the
// dimensions where both the vector and the centroid are zero and must
// match these loops bit for bit, in their outputs and in what they report
// to the Exec.
func denseEuclidean(ex *sim.Exec, in *Dataset) *Dataset {
	vectors := in.Vectors
	if len(vectors) == 0 {
		return &Dataset{}
	}
	cents := centroidsFrom(vectors)
	rv := in.Region(ex)
	centRegion := ex.Node().Alloc(uint64(len(cents)*len(cents[0])) * 8)
	assign := make([]int64, len(vectors))
	dists := make([]float64, len(vectors))
	out := &Dataset{Keys: assign, Floats: dists, Vectors: vectors}
	dim := len(vectors[0])
	for i, v := range vectors {
		ex.Load(rv, uint64(i*dim)*8, uint64(dim)*8)
		best, bestDist := 0, math.MaxFloat64
		for c, cent := range cents {
			if i == 0 {
				ex.Load(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			} else {
				ex.LoadResident(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			}
			var sum float64
			nonZero := 0
			for j := range v {
				d := v[j] - cent[j]
				if v[j] != 0 || cent[j] != 0 {
					nonZero++
				}
				sum += d * d
			}
			ex.Float(uint64(3*nonZero + 2))
			ex.Int(uint64(dim))
			closer := sum < bestDist
			ex.Branch(siteDistance, closer)
			if closer {
				best, bestDist = c, sum
			}
		}
		assign[i] = int64(best)
		dists[i] = math.Sqrt(bestDist)
		ex.Float(8)
		ex.Store(out.Region(ex), uint64(i)*8, 8)
	}
	return out
}

func denseCosine(ex *sim.Exec, in *Dataset) *Dataset {
	vectors := in.Vectors
	if len(vectors) == 0 {
		return &Dataset{}
	}
	cents := centroidsFrom(vectors)
	rv := in.Region(ex)
	centRegion := ex.Node().Alloc(uint64(len(cents)*len(cents[0])) * 8)
	sims := make([]float64, len(vectors))
	out := &Dataset{Floats: sims, Vectors: vectors}
	dim := len(vectors[0])
	for i, v := range vectors {
		ex.Load(rv, uint64(i*dim)*8, uint64(dim)*8)
		best := -math.MaxFloat64
		for c, cent := range cents {
			if i == 0 {
				ex.Load(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			} else {
				ex.LoadResident(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			}
			var dot, na, nb float64
			nonZero := 0
			for j := range v {
				if v[j] != 0 || cent[j] != 0 {
					nonZero++
				}
				dot += v[j] * cent[j]
				na += v[j] * v[j]
				nb += cent[j] * cent[j]
			}
			ex.Float(uint64(6*nonZero + 10))
			ex.Int(uint64(dim))
			var cos float64
			if na > 0 && nb > 0 {
				cos = dot / math.Sqrt(na*nb)
			}
			better := cos > best
			ex.Branch(siteDistance, better)
			if better {
				best = cos
			}
		}
		sims[i] = best
		ex.Store(out.Region(ex), uint64(i)*8, 8)
	}
	return out
}

// distanceInput generates count vectors of dimension dim.  negZeros turns
// every other zero element into −0, and zeroCentroid empties the first
// vector, which centroidsFrom takes as the first centroid.
func distanceInput(t *testing.T, count, dim int, sparsity float64, negZeros, zeroCentroid bool) [][]float64 {
	t.Helper()
	vecs, err := datagen.GenerateVectors(datagen.VectorConfig{Seed: int64(dim), Count: count, Dim: dim, Sparsity: sparsity})
	if err != nil {
		t.Fatal(err)
	}
	if zeroCentroid {
		clear(vecs[0])
	}
	if negZeros {
		k := 0
		for _, v := range vecs {
			for j, x := range v {
				if x == 0 {
					if k%2 == 0 {
						v[j] = math.Copysign(0, -1)
					}
					k++
				}
			}
		}
	}
	return vecs
}

func TestDistanceMotifsMatchDenseLoops(t *testing.T) {
	for _, tc := range []struct {
		name string
		ref  func(*sim.Exec, *Dataset) *Dataset
	}{
		{"euclidean_distance", denseEuclidean},
		{"cosine_distance", denseCosine},
	} {
		for _, dim := range []int{1, 63, 64, 65, 256} {
			for _, sparsity := range []float64{0, 0.5, 0.9, 1} {
				for _, variant := range []struct{ negZeros, zeroCentroid bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
					name := fmt.Sprintf("%s/dim%d/sparsity%g/negzero=%t/zerocentroid=%t", tc.name, dim, sparsity, variant.negZeros, variant.zeroCentroid)
					vecs := distanceInput(t, 40, dim, sparsity, variant.negZeros, variant.zeroCentroid)
					// A data set caches its region, so each run gets its own.
					got, gotCnt := runImpl(t, tc.name, &Dataset{Vectors: vecs})
					var want *Dataset
					c := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
					c.RunOnNode(tc.name, 0, 1, func(ex *sim.Exec) { want = tc.ref(ex, &Dataset{Vectors: vecs}) })
					wantCnt := c.Nodes()[0].Counters()
					if gotCnt != wantCnt {
						t.Errorf("%s: counters %+v, dense loop %+v", name, gotCnt, wantCnt)
					}
					if len(got.Keys) != len(want.Keys) || len(got.Floats) != len(want.Floats) {
						t.Fatalf("%s: %d keys and %d floats, dense loop %d and %d", name, len(got.Keys), len(got.Floats), len(want.Keys), len(want.Floats))
					}
					for i := range want.Keys {
						if got.Keys[i] != want.Keys[i] {
							t.Errorf("%s: key %d = %d, dense loop %d", name, i, got.Keys[i], want.Keys[i])
						}
					}
					for i := range want.Floats {
						if math.Float64bits(got.Floats[i]) != math.Float64bits(want.Floats[i]) {
							t.Errorf("%s: float %d = %x, dense loop %x", name, i, math.Float64bits(got.Floats[i]), math.Float64bits(want.Floats[i]))
						}
					}
				}
			}
		}
	}
}

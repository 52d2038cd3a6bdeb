package aimotif

import (
	"math"
	"math/rand"
	"testing"

	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// naiveFullyConnected is the reference dense layer: one loop per output
// that sums its taps in ascending input order and adds the bias last.
func naiveFullyConnected(in, w, bias []float32, n, inDim, outDim int) []float32 {
	out := make([]float32, n*outDim)
	for b := 0; b < n; b++ {
		for o := 0; o < outDim; o++ {
			var s float32
			for i := 0; i < inDim; i++ {
				s += in[b*inDim+i] * w[i*outDim+o]
			}
			if bias != nil {
				s += bias[o]
			}
			out[b*outDim+o] = s
		}
	}
	return out
}

// randomTensor returns a tensor whose values mix signs and six decades of
// magnitude, so that any other summation order rounds differently, with
// +0, −0 and subnormals among them.
func randomTensor(rng *rand.Rand, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	d := t.Data()
	for i := range d {
		switch rng.Intn(8) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = float32(math.Copysign(0, -1))
		case 2:
			sign := uint32(rng.Intn(2)) << 31
			d[i] = math.Float32frombits(sign | uint32(1+rng.Intn(1<<23-1)))
		default:
			d[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	return t
}

func TestFullyConnectedMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct{ n, inDim, outDim int }{
		{1, 37, 5}, {1, 3, 130}, {2, 64, 16}, {4, 129, 37}, {11, 17, 130}, {3, 200, 128},
	} {
		in := randomTensor(rng, shape.n, shape.inDim)
		w := randomTensor(rng, shape.inDim, shape.outDim)
		for _, bias := range []*tensor.Tensor{nil, randomTensor(rng, shape.outDim)} {
			var biasData []float32
			if bias != nil {
				biasData = bias.Data()
			}
			want := naiveFullyConnected(in.Data(), w.Data(), biasData, shape.n, shape.inDim, shape.outDim)
			for _, workers := range []int{1, 2, 8} {
				withWorkers(t, workers, func() {
					for _, sess := range []*Session{nil, NewSession()} {
						// A session's second call gets the first call's
						// released output back from its arena.
						for call := 0; call < 2; call++ {
							var out *tensor.Tensor
							var err error
							exec(t, func(ex *sim.Exec) { out, err = FullyConnected(ex, sess, in, w, bias) })
							if err != nil {
								t.Fatal(err)
							}
							for i, v := range out.Data() {
								if math.Float32bits(v) != math.Float32bits(want[i]) {
									t.Fatalf("%+v bias=%t workers=%d session=%t call %d: out[%d] = %x, naive loop %x",
										shape, bias != nil, workers, sess != nil, call, i, math.Float32bits(v), math.Float32bits(want[i]))
								}
							}
							sess.Release(out)
						}
					}
				})
			}
		}
	}
}

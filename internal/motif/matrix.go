package motif

import (
	"math"
	"math/bits"

	"dataproxy/internal/sim"
)

func init() {
	register(Impl{
		Name:        "matrix_multiplication",
		Class:       ClassMatrix,
		Description: "dense matrix-matrix multiplication",
		Run:         runMatrixMultiplication,
	})
	register(Impl{
		Name:        "matrix_construction",
		Class:       ClassMatrix,
		Description: "construct a dense matrix representation from vectors or a graph",
		Run:         runMatrixConstruction,
	})
	register(Impl{
		Name:        "euclidean_distance",
		Class:       ClassMatrix,
		Description: "vector-to-centroid Euclidean distance calculation",
		Run:         runEuclideanDistance,
	})
	register(Impl{
		Name:        "cosine_distance",
		Class:       ClassMatrix,
		Description: "vector-to-centroid cosine distance calculation",
		Run:         runCosineDistance,
	})
}

// matrixFrom extracts (or synthesises) a square row-major matrix from the
// dataset for the multiplication motif.
func matrixFrom(in *Dataset) ([]float64, int) {
	if len(in.Matrix) > 0 && in.Rows > 0 && in.Cols > 0 {
		n := in.Rows
		if in.Cols < n {
			n = in.Cols
		}
		m := make([]float64, n*n)
		for i := 0; i < n; i++ {
			copy(m[i*n:(i+1)*n], in.Matrix[i*in.Cols:i*in.Cols+n])
		}
		return m, n
	}
	if len(in.Vectors) > 0 {
		n := len(in.Vectors)
		if d := len(in.Vectors[0]); d < n {
			n = d
		}
		if n > 256 {
			n = 256
		}
		m := make([]float64, n*n)
		for i := 0; i < n; i++ {
			copy(m[i*n:(i+1)*n], in.Vectors[i][:n])
		}
		return m, n
	}
	if len(in.Floats) > 0 {
		n := int(math.Sqrt(float64(len(in.Floats))))
		if n > 256 {
			n = 256
		}
		if n == 0 {
			return nil, 0
		}
		return append([]float64(nil), in.Floats[:n*n]...), n
	}
	return nil, 0
}

func runMatrixMultiplication(ex *sim.Exec, in *Dataset) *Dataset {
	a, n := matrixFrom(in)
	if n == 0 {
		return &Dataset{}
	}
	// Multiply by itself: same data distribution, no extra generation.  The
	// host computes against a transposed copy so its inner loop reads memory
	// sequentially; each output still sums a[i,k]*a[k,j] in ascending k, and
	// the simulated access stream below still describes the strided column.
	bt := make([]float64, n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			bt[j*n+k] = a[k*n+j]
		}
	}
	c := make([]float64, n*n)
	out := &Dataset{Matrix: c, Rows: n, Cols: n}
	ra := in.Region(ex)
	rc := out.Region(ex)
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			col := bt[j*n : (j+1)*n]
			var sum float64
			for k, v := range row {
				sum += v * col[k]
			}
			c[i*n+j] = sum
			// Row of A is streamed, column of B is strided: report one
			// sequential load for the row and one strided touch per element
			// of the column (strides are what make matmul cache-sensitive).
			// The row stays L1-resident while its output row is produced, so
			// only its first stream is pushed through the cache model.
			if j == 0 {
				ex.Load(ra, uint64(i*n)*8, uint64(n)*8)
			} else {
				ex.LoadResident(ra, uint64(i*n)*8, uint64(n)*8)
			}
			for k := 0; k < n; k += 8 {
				ex.Touch(ra, uint64(k*n+j)*8, false)
			}
			ex.Float(uint64(2 * n))
			ex.Store(rc, uint64(i*n+j)*8, 8)
			ex.Branch(siteCompare, j%2 == 0)
		}
	}
	return out
}

func runMatrixConstruction(ex *sim.Exec, in *Dataset) *Dataset {
	// Build an adjacency-style matrix slice from a graph, or a row-major
	// matrix from vectors: the conversion-of-representation step of
	// PageRank-like workloads.
	switch {
	case in.Graph != nil:
		g := in.Graph
		n := g.NumVertices()
		if n > 512 {
			n = 512
		}
		m := make([]float64, n*n)
		out := &Dataset{Matrix: m, Rows: n, Cols: n}
		rg := in.Region(ex)
		rm := out.Region(ex)
		for v := 0; v < n; v++ {
			ex.Touch(rg, uint64(v)*24, false)
			deg := g.OutDegree(v)
			ex.Int(4)
			ex.Branch(siteGraphVisit, deg > 0)
			if deg == 0 {
				continue
			}
			w := 1.0 / float64(deg)
			for _, dst := range g.Adj[v] {
				ex.Touch(rg, uint64(dst)*4, false)
				if int(dst) < n {
					m[int(dst)*n+v] = w
					ex.Store(rm, uint64(int(dst)*n+v)*8, 8)
				}
				ex.Float(1)
			}
		}
		return out
	case len(in.Vectors) > 0:
		rows := len(in.Vectors)
		cols := len(in.Vectors[0])
		m := make([]float64, rows*cols)
		out := &Dataset{Matrix: m, Rows: rows, Cols: cols}
		rv := in.Region(ex)
		rm := out.Region(ex)
		for i, v := range in.Vectors {
			copy(m[i*cols:(i+1)*cols], v)
			ex.Load(rv, uint64(i*cols)*8, uint64(cols)*8)
			ex.Store(rm, uint64(i*cols)*8, uint64(cols)*8)
			ex.Int(uint64(cols))
		}
		return out
	default:
		return &Dataset{Matrix: in.Matrix, Rows: in.Rows, Cols: in.Cols}
	}
}

// numCentroids is the number of cluster centres used by the distance motifs
// (matching the K of the K-means workload model).
const numCentroids = 8

func centroidsFrom(vectors [][]float64) [][]float64 {
	if len(vectors) == 0 {
		return nil
	}
	k := numCentroids
	if k > len(vectors) {
		k = len(vectors)
	}
	cents := make([][]float64, k)
	for i := 0; i < k; i++ {
		cents[i] = vectors[i*len(vectors)/k]
	}
	return cents
}

// nonZeroMasks returns one bitmask per vector, words uint64s each: bit j of
// a vector's mask is set when its element j is non-zero.  The distance
// motifs loop only over the set bits of a vector's and a centroid's masks.
// Every element they skip is a zero in both, whose term in a distance, dot
// product or norm is ±0; a sum that starts at +0 never becomes −0, and
// adding ±0 to it changes nothing, so every sum equals the dense loop's bit
// for bit.
func nonZeroMasks(vectors [][]float64, words int) []uint64 {
	masks := make([]uint64, len(vectors)*words)
	for i, v := range vectors {
		m := masks[i*words : (i+1)*words]
		for j, x := range v {
			if x != 0 {
				m[j/64] |= 1 << (j % 64)
			}
		}
	}
	return masks
}

// sumSquares sums v[j]*v[j] over the set bits of v's mask in ascending j.
func sumSquares(v []float64, mask []uint64) float64 {
	var s float64
	for w, u := range mask {
		for ; u != 0; u &= u - 1 {
			x := v[w*64+bits.TrailingZeros64(u)]
			s += x * x
		}
	}
	return s
}

func runEuclideanDistance(ex *sim.Exec, in *Dataset) *Dataset {
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
	words := (dim + 63) / 64
	vMasks, cMasks := nonZeroMasks(vectors, words), nonZeroMasks(cents, words)
	for i, v := range vectors {
		vm := vMasks[i*words : (i+1)*words]
		ex.Load(rv, uint64(i*dim)*8, uint64(dim)*8)
		best, bestDist := 0, math.MaxFloat64
		for c, cent := range cents {
			// The centroid block stays resident after the first vector has
			// streamed it.
			if i == 0 {
				ex.Load(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			} else {
				ex.LoadResident(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			}
			cm := cMasks[c*words : (c+1)*words]
			var sum float64
			nonZero := 0
			for w, u := range vm {
				u |= cm[w]
				nonZero += bits.OnesCount64(u)
				for ; u != 0; u &= u - 1 {
					j := w*64 + bits.TrailingZeros64(u)
					d := v[j] - cent[j]
					sum += d * d
				}
			}
			// Sparse inputs skip multiplications for zero elements, which is
			// how input sparsity changes the motif's behaviour.
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

func runCosineDistance(ex *sim.Exec, in *Dataset) *Dataset {
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
	words := (dim + 63) / 64
	vMasks, cMasks := nonZeroMasks(vectors, words), nonZeroMasks(cents, words)
	// A norm sums the squares of one vector's own non-zero elements, so
	// each centroid's is summed once rather than once per vector.
	cNorms := make([]float64, len(cents))
	for c, cent := range cents {
		cNorms[c] = sumSquares(cent, cMasks[c*words:(c+1)*words])
	}
	for i, v := range vectors {
		vm := vMasks[i*words : (i+1)*words]
		na := sumSquares(v, vm)
		ex.Load(rv, uint64(i*dim)*8, uint64(dim)*8)
		best := -math.MaxFloat64
		for c, cent := range cents {
			if i == 0 {
				ex.Load(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			} else {
				ex.LoadResident(centRegion, uint64(c*dim)*8, uint64(dim)*8)
			}
			cm := cMasks[c*words : (c+1)*words]
			var dot float64
			nonZero := 0
			for w, u := range vm {
				u |= cm[w]
				nonZero += bits.OnesCount64(u)
				for ; u != 0; u &= u - 1 {
					j := w*64 + bits.TrailingZeros64(u)
					dot += v[j] * cent[j]
				}
			}
			ex.Float(uint64(6*nonZero + 10))
			ex.Int(uint64(dim))
			var cos float64
			if nb := cNorms[c]; na > 0 && nb > 0 {
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

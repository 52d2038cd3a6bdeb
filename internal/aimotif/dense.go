package aimotif

import (
	"fmt"
	"math"

	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// FullyConnected computes out = in * W + b where in is (N, In), weights is
// (In, Out) and bias is (Out) (bias may be nil).  Each output sums its taps
// in ascending input order in float32 and adds its bias last, so its value
// is the naive per-output loop's bit for bit at any worker count.
func FullyConnected(ex *sim.Exec, sess *Session, in, weights, bias *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Rank() != 2 || weights.Rank() != 2 {
		return nil, fmt.Errorf("aimotif: FullyConnected expects rank-2 input and weights")
	}
	n, inDim := in.Dim(0), in.Dim(1)
	wIn, outDim := weights.Dim(0), weights.Dim(1)
	if inDim != wIn {
		return nil, fmt.Errorf("aimotif: FullyConnected dimension mismatch %d vs %d", inDim, wIn)
	}
	if bias != nil && bias.Size() != outDim {
		return nil, fmt.Errorf("aimotif: bias size %d does not match output %d", bias.Size(), outDim)
	}
	out := sess.NewTensor(n, outDim)
	rIn, rW, rOut := regionOf(sess, ex, in), regionOf(sess, ex, weights), regionOf(sess, ex, out)
	var biasData []float32
	if bias != nil {
		biasData = bias.Data()
	}

	// Compute phase: the weights are walked in storage order.  For each
	// input tap i, x[b][i]·W[i][o] is added into the zeroed output rows, so
	// one pass reads each weight row once, where a loop per output would
	// read one strided column of W per output.  Every output still sums its
	// taps in ascending i and adds the bias last, so the values match the
	// naive per-output loop bit for bit.  Work items are blocks of output
	// columns, which parallelise on the worker pool with bit-identical
	// results and split each weight row between the workers.
	job := sess.fcScratch()
	*job = fcJob{
		inData: in.Data(), wData: weights.Data(), oData: out.Data(), biasData: biasData,
		n: n, inDim: inDim, outDim: outDim,
	}
	parallel.ForRunner((outDim+fcBlock-1)/fcBlock, 1, job)
	*job = fcJob{}

	// Accounting phase, per input row: 2·In·Out floating-point operations,
	// one sequential read of the row and one of the whole weight matrix,
	// and the store of the output row.
	for b := 0; b < n; b++ {
		ex.Float(uint64(2 * inDim * outDim))
		ex.Int(uint64(outDim))
		ex.Load(rIn, uint64(b*inDim)*4, uint64(inDim)*4)
		ex.Load(rW, 0, uint64(inDim*outDim)*4)
		ex.Store(rOut, uint64(b*outDim)*4, uint64(outDim)*4)
		ex.Branch(siteAI+3, b%2 == 0)
	}
	return out, nil
}

// fcBlock is the number of output columns in one work item of
// FullyConnected's compute phase: one 64-byte line of float32 outputs.
const fcBlock = 16

// fcJob is the reusable dispatch state of FullyConnected's compute phase:
// one work item per block of fcBlock output columns.
type fcJob struct {
	inData, wData, oData, biasData []float32
	n, inDim, outDim               int
}

// Run implements parallel.Runner over output column blocks: it computes
// columns [lo*fcBlock, hi*fcBlock) of every output row.  The output must
// be zeroed.  Taps are taken four at a time so each output is loaded and
// stored once per four taps; it still adds them one by one in ascending
// order.
func (j *fcJob) Run(lo, hi int) {
	n, inDim, outDim := j.n, j.inDim, j.outDim
	c0, c1 := lo*fcBlock, min(hi*fcBlock, outDim)
	cols := func(rows []float32, r int) []float32 { return rows[r*outDim+c0 : r*outDim+c1] }
	i := 0
	for ; i+4 <= inDim; i += 4 {
		w0, w1, w2, w3 := cols(j.wData, i), cols(j.wData, i+1), cols(j.wData, i+2), cols(j.wData, i+3)
		for b := 0; b < n; b++ {
			x := j.inData[b*inDim+i : b*inDim+i+4]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			o := cols(j.oData, b)
			// Slicing to len(o) lets the compiler drop the bounds checks.
			w1, w2, w3 := w1[:len(o)], w2[:len(o)], w3[:len(o)]
			for k, w := range w0[:len(o)] {
				s := o[k]
				s += x0 * w
				s += x1 * w1[k]
				s += x2 * w2[k]
				s += x3 * w3[k]
				o[k] = s
			}
		}
	}
	for ; i < inDim; i++ {
		w := cols(j.wData, i)
		for b := 0; b < n; b++ {
			x := j.inData[b*inDim+i]
			o := cols(j.oData, b)
			for k, wk := range w[:len(o)] {
				o[k] += x * wk
			}
		}
	}
	if j.biasData != nil {
		bias := j.biasData[c0:c1]
		for b := 0; b < n; b++ {
			o := cols(j.oData, b)
			for k, v := range bias[:len(o)] {
				o[k] += v
			}
		}
	}
}

// ElementwiseMultiply computes the Hadamard product of two same-shaped
// tensors.
func ElementwiseMultiply(ex *sim.Exec, sess *Session, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if !tensor.SameShape(a, b) {
		return nil, fmt.Errorf("aimotif: ElementwiseMultiply shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	out := sess.NewTensor(a.Shape()...)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := range ad {
		od[i] = ad[i] * bd[i]
	}
	ra, rb, ro := regionOf(sess, ex, a), regionOf(sess, ex, b), regionOf(sess, ex, out)
	ex.Load(ra, 0, a.Bytes())
	ex.Load(rb, 0, b.Bytes())
	ex.Store(ro, 0, out.Bytes())
	ex.Float(uint64(a.Size()))
	return out, nil
}

// Activation selects the element-wise activation function.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	Sigmoid
	Tanh
)

// Activate applies the activation element-wise.
func Activate(ex *sim.Exec, sess *Session, in *tensor.Tensor, act Activation) *tensor.Tensor {
	out := sess.NewTensor(in.Shape()...)
	id, od := in.Data(), out.Data()
	negatives := 0
	switch act {
	case ReLU:
		// The arena hands out zeroed tensors, so only positive elements
		// need a store — exactly like the naive loop over fresh storage.
		for i, v := range id {
			if v > 0 {
				od[i] = v
			} else {
				negatives++
			}
		}
	case Sigmoid:
		for i, v := range id {
			od[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case Tanh:
		for i, v := range id {
			od[i] = float32(math.Tanh(float64(v)))
		}
	}
	rIn, rOut := regionOf(sess, ex, in), regionOf(sess, ex, out)
	ex.Load(rIn, 0, in.Bytes())
	ex.Store(rOut, 0, out.Bytes())
	switch act {
	case ReLU:
		// ReLU is a compare-and-select per element (the Logic AI motif).
		ex.Int(uint64(in.Size()) * 2)
		// Report the actual taken/not-taken mix of the sign test in bulk.
		for i := 0; i < in.Size(); i += 64 {
			ex.Branch(siteAI+4, i < negatives)
		}
	case Sigmoid, Tanh:
		ex.Float(uint64(in.Size()) * 10)
	}
	return out
}

// Softmax applies a row-wise softmax to a (N, C) tensor.
func Softmax(ex *sim.Exec, sess *Session, in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Rank() != 2 {
		return nil, fmt.Errorf("aimotif: Softmax expects a rank-2 tensor")
	}
	n, c := in.Dim(0), in.Dim(1)
	out := sess.NewTensor(n, c)
	id, od := in.Data(), out.Data()
	for b := 0; b < n; b++ {
		row := id[b*c : (b+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			od[b*c+i] = float32(e)
			sum += e
		}
		for i := range row {
			od[b*c+i] = float32(float64(od[b*c+i]) / sum)
		}
	}
	rIn, rOut := regionOf(sess, ex, in), regionOf(sess, ex, out)
	ex.Load(rIn, 0, in.Bytes())
	ex.Store(rOut, 0, out.Bytes())
	ex.Float(uint64(in.Size()) * 12)
	ex.Int(uint64(in.Size()))
	return out, nil
}

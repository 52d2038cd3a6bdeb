// Package motif implements the eight data motifs the paper identifies as
// the most time-consuming units of computation in big data and AI workloads
// — Matrix, Sampling, Transform, Graph, Logic, Set, Sort and Statistics —
// using a light-weight threading model (the paper's POSIX-threads
// implementations correspond to plain Go functions scheduled by the
// simulation engine).
//
// Every implementation performs the real computation on real data (so data
// type, pattern and distribution affect its behaviour) and simultaneously
// reports its instruction stream, memory accesses, branches and disk I/O to
// a sim.Exec, which is how the proxy benchmarks obtain the system and
// micro-architectural profile the auto-tuner compares against the real
// workloads.
package motif

import (
	"fmt"
	"sort"

	"dataproxy/internal/datagen"
	"dataproxy/internal/sim"
	"dataproxy/internal/tensor"
)

// Class enumerates the eight data motif classes of the paper.
type Class int

// The eight data motif classes.
const (
	ClassMatrix Class = iota
	ClassSampling
	ClassTransform
	ClassGraph
	ClassLogic
	ClassSet
	ClassSort
	ClassStatistics
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMatrix:
		return "Matrix"
	case ClassSampling:
		return "Sampling"
	case ClassTransform:
		return "Transform"
	case ClassGraph:
		return "Graph"
	case ClassLogic:
		return "Logic"
	case ClassSet:
		return "Set"
	case ClassSort:
		return "Sort"
	case ClassStatistics:
		return "Statistics"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists all eight motif classes.
func Classes() []Class {
	return []Class{ClassMatrix, ClassSampling, ClassTransform, ClassGraph,
		ClassLogic, ClassSet, ClassSort, ClassStatistics}
}

// Dataset is the data flowing along the edges of a proxy benchmark DAG: the
// original input of a motif or the intermediate data it produced.  Only the
// fields relevant to a particular data type are populated.
type Dataset struct {
	Records []datagen.Record
	Keys    []int64
	Values  []int64
	Words   []string
	Vectors [][]float64
	Matrix  []float64
	Rows    int
	Cols    int
	Graph   *datagen.Graph
	Floats  []float64
	Bytes   []byte
	// Tensors carries image/feature-map batches for the AI data motifs
	// (NCHW layout).
	Tensors []*tensor.Tensor

	region    sim.Region
	regionSet bool
}

// SizeBytes estimates the in-memory volume of the dataset, which is what the
// synthetic address region is sized from.
func (d *Dataset) SizeBytes() uint64 {
	var n uint64
	n += uint64(len(d.Records)) * datagen.RecordSize
	n += uint64(len(d.Keys)) * 8
	n += uint64(len(d.Values)) * 8
	for _, w := range d.Words {
		n += uint64(len(w)) + 16
	}
	for _, v := range d.Vectors {
		n += uint64(len(v)) * 8
	}
	n += uint64(len(d.Matrix)) * 8
	if d.Graph != nil {
		n += uint64(d.Graph.NumEdges())*4 + uint64(d.Graph.NumVertices())*24
	}
	n += uint64(len(d.Floats)) * 8
	n += uint64(len(d.Bytes))
	for _, t := range d.Tensors {
		n += t.Bytes()
	}
	return n
}

// Region returns the synthetic address region backing this dataset on the
// executing node, allocating it on first use.  Reusing the region across
// motifs that revisit the same dataset is what produces cache locality.
func (d *Dataset) Region(ex *sim.Exec) sim.Region {
	if !d.regionSet {
		size := d.SizeBytes()
		if size == 0 {
			size = 8
		}
		d.region = ex.Node().Alloc(size)
		d.regionSet = true
	}
	return d.region
}

// Impl is one concrete data motif implementation (a cell of Figure 2 in the
// paper), e.g. "quicksort" in the Sort class.
type Impl struct {
	// Name is the registry key, e.g. "quicksort".
	Name string
	// Class is the data motif class the implementation belongs to.
	Class Class
	// Description is a short human-readable summary.
	Description string
	// Run executes the motif on the input dataset, reporting its work to ex,
	// and returns the produced (intermediate) dataset.  It may allocate the
	// input's region but must not write its collections: a proxy benchmark
	// group that resumes a recorded trace shares the data sets of the
	// trace's resume point with every other group resuming there.
	Run func(ex *sim.Exec, in *Dataset) *Dataset
}

var registry = map[string]Impl{}

// Register adds an implementation to the global registry.  It is used by
// this package's init functions for the big data motifs and by package
// aimotif for the AI data motifs.  Registering an empty or duplicate name
// panics, since that is a programming error.
func Register(impl Impl) {
	if impl.Name == "" || impl.Run == nil {
		panic("motif: invalid implementation registration")
	}
	if _, dup := registry[impl.Name]; dup {
		panic("motif: duplicate implementation " + impl.Name)
	}
	registry[impl.Name] = impl
}

func register(impl Impl) { Register(impl) }

// Lookup returns the implementation registered under name.
func Lookup(name string) (Impl, error) {
	impl, ok := registry[name]
	if !ok {
		return Impl{}, fmt.Errorf("motif: unknown implementation %q", name)
	}
	return impl, nil
}

// Names returns all registered implementation names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByClass returns the registered implementations of one class, sorted by
// name.
func ByClass(c Class) []Impl {
	var impls []Impl
	for _, n := range Names() {
		if registry[n].Class == c {
			impls = append(impls, registry[n])
		}
	}
	return impls
}

// branch site identifiers keep the predictor model's per-site histories
// separate between logically different branches.
const (
	siteCompare = iota + 1
	siteSwap
	sitePartition
	siteMerge
	siteSample
	siteHash
	siteGraphVisit
	siteSetProbe
	siteStats
	siteTransform
	siteDistance
	siteEncrypt
)

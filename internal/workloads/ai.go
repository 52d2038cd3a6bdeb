package workloads

import (
	"fmt"

	"dataproxy/internal/aimotif"
	"dataproxy/internal/dataflow"
	"dataproxy/internal/datagen"
	"dataproxy/internal/sim"
)

// AlexNetConfig parameterises the TensorFlow AlexNet workload.
type AlexNetConfig struct {
	// Steps is the total number of training steps across all workers (the
	// paper uses 10,000 on the five-node cluster and 3,000 on the three-node
	// cluster).
	Steps int
	// BatchSize is the per-step batch size (128 in the paper).
	BatchSize int
	// SampleBatch is the number of images actually executed per sampled
	// step on the host; the gap to BatchSize is folded into the session's
	// extrapolation factor.  Zero selects the default (2).  Short test runs
	// use 1 to halve the host-side compute without changing the modelled
	// workload scale.
	SampleBatch int
}

// DefaultAlexNet returns the paper's five-node configuration.
func DefaultAlexNet() AlexNetConfig { return AlexNetConfig{Steps: 10000, BatchSize: 128} }

// InceptionConfig parameterises the TensorFlow Inception-V3 workload.
type InceptionConfig struct {
	// Steps is the total number of training steps (1,000 in the paper's main
	// evaluation, 200 on the three-node cluster).
	Steps int
	// BatchSize is the per-step batch size (32 in the paper).
	BatchSize int
	// SpatialScale divides the 299x299 input resolution of the in-process
	// network; the cost gap to the real resolution is folded into the
	// session's extrapolation factor.  Zero selects the default (4).  Short
	// test runs use 8 to quarter the host-side compute without changing the
	// modelled workload scale.
	SpatialScale int
}

// DefaultInception returns the paper's five-node configuration.
func DefaultInception() InceptionConfig { return InceptionConfig{Steps: 1000, BatchSize: 32} }

// alexNetWidthScale divides the channel widths of the in-process AlexNet so
// a sampled step stays cheap on the host; the cost difference is folded back
// through the session's CostScale.
const alexNetWidthScale = 2

// alexNetSIMDEfficiency and inceptionSIMDEfficiency calibrate the scalar
// instruction model against the vectorised kernels the real TensorFlow
// stack executes (AlexNet's large 128-image batches map onto very efficient
// GEMMs; Inception's smaller 32-image batches and many small convolutions
// are less efficient).
const (
	alexNetSIMDEfficiency   = 0.025
	inceptionSIMDEfficiency = 0.34
)

// AlexNetNetwork builds the CIFAR-10-scale AlexNet used by the workload:
// five convolutional layers with interleaved pooling followed by three fully
// connected layers, at 1/alexNetWidthScale of the real channel widths.
func AlexNetNetwork() *dataflow.Network {
	s := alexNetWidthScale
	return &dataflow.Network{
		Name: "alexnet-cifar10",
		Layers: []dataflow.Layer{
			dataflow.NewConv("conv1", 3, 64/s, 3, 1, 1),
			&dataflow.Activation{Label: "relu1", Act: aimotif.ReLU},
			&dataflow.Pool{Label: "pool1", Kind: aimotif.MaxPool, Window: 2, Stride: 2},
			dataflow.NewConv("conv2", 64/s, 192/s, 3, 1, 1),
			&dataflow.Activation{Label: "relu2", Act: aimotif.ReLU},
			&dataflow.Pool{Label: "pool2", Kind: aimotif.MaxPool, Window: 2, Stride: 2},
			dataflow.NewConv("conv3", 192/s, 384/s, 3, 1, 1),
			&dataflow.Activation{Label: "relu3", Act: aimotif.ReLU},
			dataflow.NewConv("conv4", 384/s, 256/s, 3, 1, 1),
			&dataflow.Activation{Label: "relu4", Act: aimotif.ReLU},
			dataflow.NewConv("conv5", 256/s, 256/s, 3, 1, 1),
			&dataflow.Activation{Label: "relu5", Act: aimotif.ReLU},
			&dataflow.Pool{Label: "pool5", Kind: aimotif.MaxPool, Window: 2, Stride: 2},
			&dataflow.BatchNorm{Label: "norm5"},
			dataflow.NewDense("fc6", (256/s)*4*4, 512/s),
			&dataflow.Activation{Label: "relu6", Act: aimotif.ReLU},
			&dataflow.Dropout{Label: "drop6", Rate: 0.5, Seed: 6},
			dataflow.NewDense("fc7", 512/s, 512/s),
			&dataflow.Activation{Label: "relu7", Act: aimotif.ReLU},
			&dataflow.Dropout{Label: "drop7", Rate: 0.5, Seed: 7},
			dataflow.NewDense("fc8", 512/s, 10),
			&dataflow.Softmax{Label: "prob"},
		},
	}
}

// AlexNet returns the TensorFlow AlexNet workload trained on CIFAR-10.
func AlexNet(cfg AlexNetConfig) Spec {
	return Spec{
		Name:      "TensorFlow AlexNet",
		ShortName: "alexnet",
		Pattern:   CPUAndMemIntensive,
		DataSet:   "Image (CIFAR-10)",
		Run: func(cluster *sim.Cluster) error {
			return runAlexNet(cluster, cfg)
		},
	}
}

func runAlexNet(cluster *sim.Cluster, cfg AlexNetConfig) error {
	if cfg.Steps <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("workloads: invalid AlexNet config %+v", cfg)
	}
	sampleBatch := cfg.SampleBatch
	if sampleBatch <= 0 {
		sampleBatch = 2
	}
	session := dataflow.SessionConfig{
		Name:        "alexnet",
		BatchSize:   cfg.BatchSize,
		TotalSteps:  cfg.Steps,
		SampleBatch: sampleBatch,
		// The width scale reduces the in-process convolution cost by ~s^2,
		// which would call for a CostScale of s^2; the additional factor
		// calibrates for the vectorised (SSE/AVX) Eigen kernels TensorFlow
		// uses on large batches, which our scalar instruction model does not
		// capture.
		CostScale: float64(alexNetWidthScale*alexNetWidthScale) * alexNetSIMDEfficiency,
		Input:     datagen.CIFAR10(11, 0),
	}
	_, err := dataflow.Train(cluster, AlexNetNetwork(), session)
	return err
}

// Inception-V3 in-process scaling: the real network runs 299x299 inputs
// through ~94 convolutions; the in-process version keeps the structural
// signature (stem + inception modules with concatenated branches + auxiliary
// pooling) at 1/4 of the spatial resolution and 1/4 of the channel widths,
// and folds the cost difference into CostScale (~16 for space x ~16 for
// width).
const (
	inceptionSpatialScale = 4
	inceptionWidthScale   = 4
)

// InceptionV3Network builds the reduced-width Inception-V3-style network.
func InceptionV3Network() *dataflow.Network {
	w := inceptionWidthScale
	module := func(label string, inC int) *dataflow.Inception {
		return &dataflow.Inception{
			Label: label,
			Branches: [][]dataflow.Layer{
				{dataflow.NewConv(label+"/1x1", inC, 64/w, 1, 1, 0)},
				{
					dataflow.NewConv(label+"/3x3_reduce", inC, 48/w, 1, 1, 0),
					dataflow.NewConv(label+"/3x3", 48/w, 64/w, 3, 1, 1),
				},
				{
					dataflow.NewConv(label+"/d3x3_reduce", inC, 64/w, 1, 1, 0),
					dataflow.NewConv(label+"/d3x3a", 64/w, 96/w, 3, 1, 1),
					dataflow.NewConv(label+"/d3x3b", 96/w, 96/w, 3, 1, 1),
				},
				{dataflow.NewConv(label+"/pool_proj", inC, 32/w, 1, 1, 0)},
			},
		}
	}
	mixedOut := (64 + 64 + 96 + 32) / w
	return &dataflow.Network{
		Name: "inception-v3",
		Layers: []dataflow.Layer{
			// Stem.
			dataflow.NewConv("conv1", 3, 32/w, 3, 2, 0),
			&dataflow.BatchNorm{Label: "bn1"},
			&dataflow.Activation{Label: "relu1", Act: aimotif.ReLU},
			dataflow.NewConv("conv2", 32/w, 32/w, 3, 1, 0),
			&dataflow.BatchNorm{Label: "bn2"},
			&dataflow.Activation{Label: "relu2", Act: aimotif.ReLU},
			dataflow.NewConv("conv3", 32/w, 64/w, 3, 1, 1),
			&dataflow.BatchNorm{Label: "bn3"},
			&dataflow.Activation{Label: "relu3", Act: aimotif.ReLU},
			&dataflow.Pool{Label: "pool1", Kind: aimotif.MaxPool, Window: 3, Stride: 2},
			// Inception modules.
			module("mixed1", 64/w),
			&dataflow.Activation{Label: "relu_m1", Act: aimotif.ReLU},
			module("mixed2", mixedOut),
			&dataflow.Activation{Label: "relu_m2", Act: aimotif.ReLU},
			&dataflow.Pool{Label: "pool2", Kind: aimotif.MaxPool, Window: 3, Stride: 2},
			module("mixed3", mixedOut),
			&dataflow.Activation{Label: "relu_m3", Act: aimotif.ReLU},
			// Head.
			&dataflow.Pool{Label: "global_pool", Kind: aimotif.AvgPool, Window: 8, Stride: 8},
			&dataflow.Dropout{Label: "dropout", Rate: 0.2, Seed: 3},
			dataflow.NewDense("logits", mixedOut, 100),
			&dataflow.Softmax{Label: "prob"},
		},
	}
}

// InceptionV3 returns the TensorFlow Inception-V3 workload trained on
// ILSVRC2012-style images.
func InceptionV3(cfg InceptionConfig) Spec {
	return Spec{
		Name:      "TensorFlow Inception-V3",
		ShortName: "inception",
		Pattern:   CPUIntensive,
		DataSet:   "Image (ILSVRC2012)",
		Run: func(cluster *sim.Cluster) error {
			return runInception(cluster, cfg)
		},
	}
}

func runInception(cluster *sim.Cluster, cfg InceptionConfig) error {
	if cfg.Steps <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("workloads: invalid Inception config %+v", cfg)
	}
	spatialScale := cfg.SpatialScale
	if spatialScale <= 0 {
		spatialScale = inceptionSpatialScale
	}
	spatial := spatialScale * spatialScale
	width := inceptionWidthScale * inceptionWidthScale
	session := dataflow.SessionConfig{
		Name:        "inception-v3",
		BatchSize:   cfg.BatchSize,
		TotalSteps:  cfg.Steps,
		SampleBatch: 1,
		CostScale:   float64(spatial*width) * inceptionSIMDEfficiency,
		Input: datagen.ImageConfig{
			Seed:     13,
			Channels: 3,
			Height:   299 / spatialScale,
			Width:    299 / spatialScale,
		},
	}
	_, err := dataflow.Train(cluster, InceptionV3Network(), session)
	return err
}

// PaperWorkloads returns the five workloads with the configurations of the
// paper's main evaluation (Section III-B): 100 GB TeraSort text, 100 GB
// 90%-sparse K-means vectors, a 2^26-vertex PageRank graph, AlexNet on
// CIFAR-10 for 10,000 steps at batch 128, and Inception-V3 on ILSVRC2012 for
// 1,000 steps at batch 32.
func PaperWorkloads() []Spec {
	return []Spec{
		TeraSort(100 * GiB),
		KMeans(DefaultKMeans()),
		PageRank(DefaultPageRank()),
		AlexNet(DefaultAlexNet()),
		InceptionV3(DefaultInception()),
	}
}

// NewClusterWorkloads returns the five workloads with the step counts the
// paper uses for the three-node configuration-adaptability study (Section
// IV-B): the big data inputs are unchanged, AlexNet runs 3,000 steps and
// Inception-V3 runs 200 steps.
func NewClusterWorkloads() []Spec {
	return []Spec{
		TeraSort(100 * GiB),
		KMeans(DefaultKMeans()),
		PageRank(DefaultPageRank()),
		AlexNet(AlexNetConfig{Steps: 3000, BatchSize: 128}),
		InceptionV3(InceptionConfig{Steps: 200, BatchSize: 32}),
	}
}

// ShortPaperWorkloads returns the five workloads at the paper's input
// volumes but with reduced AI training steps and reduced host-side sampling
// (AlexNet executes one image per sampled step, Inception runs at 1/8 of
// the real resolution), for -short test runs: virtual runtimes stay within
// the paper's orders of magnitude while the host cost drops several-fold.
func ShortPaperWorkloads() []Spec {
	return []Spec{
		TeraSort(100 * GiB),
		KMeans(DefaultKMeans()),
		PageRank(DefaultPageRank()),
		AlexNet(AlexNetConfig{Steps: 1000, BatchSize: 128, SampleBatch: 1}),
		InceptionV3(InceptionConfig{Steps: 200, BatchSize: 32, SpatialScale: 8}),
	}
}

// ShortNewClusterWorkloads is ShortPaperWorkloads for the three-node
// configuration study.
func ShortNewClusterWorkloads() []Spec {
	return []Spec{
		TeraSort(100 * GiB),
		KMeans(DefaultKMeans()),
		PageRank(DefaultPageRank()),
		AlexNet(AlexNetConfig{Steps: 300, BatchSize: 128, SampleBatch: 1}),
		InceptionV3(InceptionConfig{Steps: 100, BatchSize: 32, SpatialScale: 8}),
	}
}

// ByShortName returns the workload with the given short name from the
// paper-default set.
func ByShortName(name string) (Spec, error) { return find(PaperWorkloads(), name) }

func find(specs []Spec, name string) (Spec, error) {
	for _, s := range specs {
		if s.ShortName == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Deployment is one of the paper's real deployments: a cluster and the
// workload configurations the paper runs on it.
type Deployment struct {
	Cluster   sim.ClusterConfig
	Workloads []Spec
}

// Workload returns the deployment's workload with the given short name.
func (d Deployment) Workload(shortName string) (Spec, error) { return find(d.Workloads, shortName) }

// RealDeployment returns the real deployment of an architecture generation,
// whose measurements a proxy qualified for that generation is tuned
// against: "westmere" is the five-node Westmere cluster with the main
// evaluation's workloads (PaperWorkloads, Section III-B), and "haswell" the
// three-node Haswell cluster with the three-node step counts
// (NewClusterWorkloads, Section IV).
func RealDeployment(archName string) (Deployment, error) {
	switch archName {
	case "westmere":
		return Deployment{Cluster: sim.FiveNodeWestmere(), Workloads: PaperWorkloads()}, nil
	case "haswell":
		return Deployment{Cluster: sim.ThreeNodeHaswell64GB(), Workloads: NewClusterWorkloads()}, nil
	}
	return Deployment{}, fmt.Errorf("workloads: no real deployment for architecture %q", archName)
}

package motif

import (
	"testing"

	"dataproxy/internal/arch"
	"dataproxy/internal/datagen"
	"dataproxy/internal/sim"
)

// BenchmarkDistanceMotifs measures each distance motif on one task's share
// of the K-means proxy's input: 128 vectors of 256 dimensions at the
// paper's 90% sparsity (a 2 MiB sample split across 8 tasks).
func BenchmarkDistanceMotifs(b *testing.B) {
	vecs, err := datagen.GenerateVectors(datagen.VectorConfig{Seed: 1, Count: 128, Dim: 256, Sparsity: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"euclidean_distance", "cosine_distance"} {
		b.Run(name, func(b *testing.B) {
			impl, err := Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			cluster := sim.MustNewCluster(sim.SingleNode(arch.Westmere(), 0))
			cluster.RunOnNode(name, 0, 1, func(ex *sim.Exec) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.Run(ex, &Dataset{Vectors: vecs})
				}
				b.StopTimer()
			})
		})
	}
}

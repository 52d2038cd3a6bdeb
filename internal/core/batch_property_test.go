package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dataproxy/internal/core"
	"dataproxy/internal/parallel"
	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

func metricsJSON(t *testing.T, rep sim.Report) []byte {
	t.Helper()
	buf, err := rep.Metrics.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	return buf
}

// soloReportsSHA256 pins, per architecture profile, the SHA-256 over the
// one-lane reports of TestRunBatchMatchesSequential's 21 random settings:
// for each report its canonical metric bytes, then
// "|%x|%+v|%+v\n" of the runtime's float64 bits, the aggregate counters
// and the stages.  The values come from core.Run's former solo
// implementation, so a bug that every lane shares, which lane invariance
// cannot see (a dropped weight factor, a wrong input scale), still fails
// here.  A change that means to alter the model updates these hashes and
// says so.
var soloReportsSHA256 = map[string]string{
	"westmere": "9b6ea74494f4db89a64c447c8bf3f58620b231c9a78c5b71535a4f39933afa91",
	"haswell":  "2291f1f8bd55729743f5dfc2721a117ee6f0da763bb037346547d3f49431cfa4",
}

// TestRunBatchMatchesSequential is the lane-invariance property: for
// randomized K (including K=1 and K larger than the host worker count),
// both architecture profiles and several host worker counts, lane i of
// RunBatch(pool, b, S) must be bit-identical — metric bytes, aggregate
// counters, runtime and stages — to RunBatch(pool, b, S[i:i+1])[0], the
// one-lane batch core.Run also executes.  The one-lane reports themselves
// are pinned by soloReportsSHA256.
func TestRunBatchMatchesSequential(t *testing.T) {
	for _, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			b := testutil.SmallBenchmark()
			pool := testutil.Pool(np.Profile)
			digest := sha256.New()
			for _, k := range []int{1, 3, 17} {
				settings := make([]core.Setting, k)
				for i := range settings {
					settings[i] = testutil.RandomSetting(rng)
				}
				want := make([]sim.Report, k)
				for i := range settings {
					reps, err := core.RunBatch(pool, b, settings[i:i+1])
					if err != nil {
						t.Fatalf("one-lane run %d: %v", i, err)
					}
					want[i] = reps[0]
					digest.Write(metricsJSON(t, want[i]))
					fmt.Fprintf(digest, "|%x|%+v|%+v\n", math.Float64bits(want[i].Runtime), want[i].Aggregate, want[i].Stages)
				}
				for _, workers := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(workers)
					got, err := core.RunBatch(pool, b, settings)
					parallel.SetWorkers(prev)
					if err != nil {
						t.Fatalf("k=%d workers=%d: %v", k, workers, err)
					}
					if len(got) != k {
						t.Fatalf("k=%d: got %d reports", k, len(got))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("k=%d workers=%d lane %d (%v): batched report diverges\n got: %+v\nwant: %+v",
								k, workers, i, settings[i], got[i], want[i])
						}
						if gb, wb := metricsJSON(t, got[i]), metricsJSON(t, want[i]); !bytes.Equal(gb, wb) {
							t.Errorf("k=%d lane %d: metric bytes diverge\n got %s\nwant %s", k, i, gb, wb)
						}
						if got[i].Aggregate != want[i].Aggregate {
							t.Errorf("k=%d lane %d: counters diverge\n got %+v\nwant %+v", k, i, got[i].Aggregate, want[i].Aggregate)
						}
					}
				}
			}
			if got := fmt.Sprintf("%x", digest.Sum(nil)); got != soloReportsSHA256[np.Name] {
				t.Fatalf("one-lane reports moved: sha256 %s, pinned %s", got, soloReportsSHA256[np.Name])
			}
		})
	}
}

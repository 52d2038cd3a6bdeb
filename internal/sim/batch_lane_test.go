package sim_test

import (
	"reflect"
	"testing"

	"dataproxy/internal/sim"
	"dataproxy/internal/testutil"
)

// TestBatchLanesMatchSoloRuns drives the lockstep Batch directly at the sim
// layer: each lane of a K-lane batch must be bit-identical — counters,
// virtual time, stages, derived metrics — to a Cluster run (the one-lane
// case of the same stage executor) of the same trace at that lane's
// extrapolation factor, on both architecture profiles.  A stage whose
// factors are nil accounts every lane at 1.
func TestBatchLanesMatchSoloRuns(t *testing.T) {
	scales := []float64{1, 2.5, 0, 0.5} // 0 means 1, as in Cluster.RunStage
	for _, np := range testutil.Profiles() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			drive := func(stage int) func(ex *sim.Exec) {
				return func(ex *sim.Exec) { testutil.DriveRandomTrace(ex, 90+int64(stage)) }
			}

			bt := sim.NewBatch(testutil.Cluster(np.Profile), len(scales))
			bt.RunOnNode("stage-0", 0, scales, drive(0))
			bt.RunStage("stage-1", []sim.Task{{Node: -1, Fn: drive(1)}}, 0, scales)
			bt.RunStage("stage-2", []sim.Task{{Node: -1, Fn: drive(2)}}, 0, nil)
			got := bt.Reports("lane")

			for lane, s := range scales {
				solo := testutil.Cluster(np.Profile)
				solo.RunOnNode("stage-0", 0, s, drive(0))
				solo.RunStage("stage-1", []sim.Task{{Node: -1, Fn: drive(1)}}, 0, s)
				solo.RunStage("stage-2", []sim.Task{{Node: -1, Fn: drive(2)}}, 0, 1)
				want := solo.Report("lane")
				if !reflect.DeepEqual(got[lane], want) {
					t.Errorf("lane %d (scale %g): batched report diverges\n got: %+v\nwant: %+v",
						lane, s, got[lane], want)
				}
			}
		})
	}
}

// TestNewBatchClampsLaneCount pins NewBatch's k<1 normalisation.
func TestNewBatchClampsLaneCount(t *testing.T) {
	bt := sim.NewBatch(testutil.WestmereCluster(), 0)
	bt.RunOnNode("only", 0, nil, func(ex *sim.Exec) { ex.Int(100) })
	reps := bt.Reports("only")
	if len(reps) != 1 {
		t.Fatalf("NewBatch(c, 0) built %d lanes, want 1", len(reps))
	}
	if reps[0].Runtime <= 0 {
		t.Fatalf("clamped batch accumulated no virtual time: %+v", reps[0])
	}
}

package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
)

// testConfig returns a campaign config small enough to run many times in
// the unit suite: one cheap workload, few steps, short traces.
func testConfig(seed uint64, profile string) Config {
	return Config{
		Seed:        seed,
		Steps:       4,
		Workloads:   []string{"terasort"},
		Profiles:    []string{profile},
		MaxSettings: 2,
		TraceTasks:  2,
		TraceOps:    60,
	}
}

func TestGenerateInstanceIsPureFunctionOfConfig(t *testing.T) {
	cfg := Config{Seed: 42}
	a, b := GenerateInstance(cfg), GenerateInstance(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different instances")
	}
	if len(a.Steps) != cfg.withDefaults().Steps {
		t.Fatalf("generated %d steps, want %d", len(a.Steps), cfg.withDefaults().Steps)
	}
	other := GenerateInstance(Config{Seed: 43})
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds generated identical instances")
	}
	for i, s := range a.Steps {
		switch s.Kind {
		case StepEval:
			if len(s.Settings) == 0 || s.Workload == "" {
				t.Fatalf("step %d: malformed eval step %+v", i, s)
			}
			for _, set := range s.Settings {
				if err := set.Validate(); err != nil {
					t.Fatalf("step %d: generated invalid setting: %v", i, err)
				}
			}
		case StepTrace:
			if s.Tasks <= 0 || s.Ops <= 0 {
				t.Fatalf("step %d: malformed trace step %+v", i, s)
			}
		}
	}
}

func TestConfigValidateRejectsUnknownNames(t *testing.T) {
	if err := (Config{Profiles: []string{"itanium"}}).Validate(); err == nil {
		t.Fatal("unknown profile must be rejected")
	}
	if err := (Config{Workloads: []string{"minesweeper"}}).Validate(); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
	if err := (Config{Seed: 1}).Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
}

// TestCampaignDeterminismAcrossWorkers is the nondeterminism gate: the
// same seed must yield byte-identical report bytes at 1, 2 and 8 host
// workers, and again on a repeated run.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	for _, profile := range []string{"westmere", "haswell"} {
		cfg := testConfig(7, profile)
		want, err := VerifyDeterminism(cfg, []int{1, 2, 8})
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		again, err := runEncoded(cfg)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		if !bytes.Equal(want, again) {
			t.Fatalf("%s: repeated run produced different report bytes", profile)
		}
	}
}

// TestCampaignImportExportResume is the checkpoint property over ≥3 seeds
// on both architecture profiles: export mid-campaign, round-trip through
// the snapshot codec, resume fresh, finish bit-identically.
func TestCampaignImportExportResume(t *testing.T) {
	for _, profile := range []string{"westmere", "haswell"} {
		for seed := uint64(20); seed < 23; seed++ {
			if _, err := VerifyImportExport(testConfig(seed, profile), -1); err != nil {
				t.Fatalf("%s seed %d: %v", profile, seed, err)
			}
		}
	}
	// Boundary splits: before any step and after the last one.
	cfg := testConfig(20, "westmere")
	steps := len(GenerateInstance(cfg).Steps)
	for _, split := range []int{0, steps} {
		if _, err := VerifyImportExport(cfg, split); err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
	}
}

func TestRunSeedsReturnsReportsInSeedOrder(t *testing.T) {
	seeds := []uint64{31, 32, 33}
	reports, err := RunSeeds(testConfig(0, "westmere"), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep == nil || rep.Seed != seeds[i] {
			t.Fatalf("slot %d: got report for seed %v, want %d", i, rep, seeds[i])
		}
	}
}

func TestResumeRejectsDamagedState(t *testing.T) {
	r, err := NewRunner(testConfig(5, "westmere"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	good, err := r.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(good); err != nil {
		t.Fatalf("pristine state must resume: %v", err)
	}

	if _, err := Resume(&snapshot.State{}); err == nil {
		t.Fatal("state without a cursor must be rejected")
	}
	bad := *good
	bad.Jobs = append([]snapshot.JobEntry(nil), good.Jobs...)
	bad.Jobs[0].Payload = []byte(`{"version":99}`)
	if _, err := Resume(&bad); err == nil {
		t.Fatal("unknown cursor version must be rejected")
	}
	bad.Jobs = good.Jobs[:1]
	if _, err := Resume(&bad); err == nil {
		t.Fatal("missing cluster checkpoints must be rejected")
	}
	bad.Jobs = append([]snapshot.JobEntry(nil), good.Jobs...)
	bad.Jobs[1].Payload = []byte("not a cluster checkpoint")
	if _, err := Resume(&bad); err == nil {
		t.Fatal("corrupt cluster checkpoint must be rejected")
	}
	bad = *good
	bad.MemoEntries = append([]snapshot.MemoEntry(nil), good.MemoEntries...)
	if len(bad.MemoEntries) == 0 {
		t.Fatal("two steps left no memo entry to damage")
	}
	bad.MemoEntries[0].Metrics = []byte("{")
	if _, err := Resume(&bad); err == nil {
		t.Fatal("corrupt memo metrics must be rejected")
	}
	// Well-formed JSON is not proof: a restored vector re-proves its
	// invariants, so a hit ratio above 1 or a negative IPC is rejected.
	bad.MemoEntries[0].Metrics = []byte(`{"L1I_hit":1.5,"IPC":-2}`)
	if _, err := Resume(&bad); err == nil {
		t.Fatal("memo metrics that violate their invariants must be rejected")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	r, err := NewRunner(testConfig(6, "haswell"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/campaign.snap"
	if err := r.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := want.Encode()
	gb, _ := got.Encode()
	if !bytes.Equal(wb, gb) {
		t.Fatal("file-resumed campaign diverged from the in-process one")
	}
}

// findEvalSeed returns a seed whose generated first step is an eval step
// with at least minSettings distinct settings under cfg.
func findEvalSeed(t *testing.T, cfg Config, minSettings int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 4096; seed++ {
		c := cfg
		c.Seed = seed
		step := GenerateInstance(c).Steps[0]
		if step.Kind != StepEval {
			continue
		}
		distinct := make(map[string]bool)
		for _, s := range step.Settings {
			distinct[s.Canonical()] = true
		}
		if len(distinct) >= minSettings {
			return seed
		}
	}
	t.Fatal("no suitable seed found")
	return 0
}

// TestInjectedInvariantViolationFailsTheCampaign arms the mutateMetrics
// hook to corrupt every fresh metric vector; the per-step invariant gate
// must abort the campaign.
func TestInjectedInvariantViolationFailsTheCampaign(t *testing.T) {
	cfg := testConfig(0, "westmere")
	cfg.Steps = 1
	cfg.Seed = findEvalSeed(t, cfg, 1)
	mutateMetrics = func(m *perf.Metrics) { m.L1DHit = 1.5 }
	defer func() { mutateMetrics = nil }()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("campaign with a corrupted ratio metric must fail its invariant gate")
	}
}

// TestInjectedMapOrderNondeterminismIsCaught arms the recordUnordered hook
// (eval records assembled by ranging over a map) and checks that repeated
// runs of the same seed stop being byte-identical — i.e. that the harness
// CI leans on would actually catch a map-iteration-order leak.
func TestInjectedMapOrderNondeterminismIsCaught(t *testing.T) {
	cfg := testConfig(0, "westmere")
	cfg.Steps = 1
	cfg.MaxSettings = 3
	cfg.Seed = findEvalSeed(t, cfg, 3)
	recordUnordered = true
	defer func() { recordUnordered = false }()
	first, err := runEncoded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 40; run++ {
		got, err := runEncoded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, got) {
			return // the leak surfaced, as it must
		}
	}
	t.Fatal("map-order leak never surfaced across 40 runs — the harness would not catch one")
}

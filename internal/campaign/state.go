package campaign

import (
	"encoding/json"
	"fmt"

	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
)

// cursorVersion guards the campaign-cursor payload layout inside a
// snapshot; bump on incompatible change.
const cursorVersion = 1

// cursor is the campaign's own durable state beyond the memo: where the
// run stands and everything already recorded.  It rides in the snapshot's
// first job record; the per-profile trace-cluster checkpoints follow it in
// cfg.Profiles order.
type cursor struct {
	Version     int          `json:"version"`
	Config      Config       `json:"config"`
	Next        int          `json:"next"`
	Steps       []StepRecord `json:"steps"`
	Evaluations int          `json:"evaluations"`
	CacheHits   int          `json:"cache_hits"`
}

// ExportState checkpoints the campaign mid-run through the snapshot codec:
// the memo's completed measurements (sorted by key, canonical metrics
// JSON), the campaign cursor, and each per-profile trace cluster's full
// mid-trace state.  Exporting at a step boundary and resuming in a fresh
// process continues to a bit-identical final report.
func (r *Runner) ExportState() (*snapshot.State, error) {
	st := &snapshot.State{}
	for _, e := range r.memo.Export() {
		buf, err := json.Marshal(e.Metrics)
		if err != nil {
			return nil, fmt.Errorf("campaign: encoding memo entry: %w", err)
		}
		st.MemoEntries = append(st.MemoEntries, snapshot.MemoEntry{Key: e.Key, Metrics: buf})
	}
	cur := cursor{
		Version:     cursorVersion,
		Config:      r.cfg,
		Next:        r.next,
		Steps:       r.steps,
		Evaluations: r.evaluations,
		CacheHits:   r.cacheHits,
	}
	payload, err := json.Marshal(cur)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding cursor: %w", err)
	}
	st.Jobs = append(st.Jobs, snapshot.JobEntry{Payload: payload})
	for _, p := range r.cfg.Profiles {
		st.Jobs = append(st.Jobs, snapshot.JobEntry{Payload: r.traces[p].ExportState()})
	}
	return st, nil
}

// WriteSnapshot atomically writes the campaign checkpoint to path.
func (r *Runner) WriteSnapshot(path string) error {
	st, err := r.ExportState()
	if err != nil {
		return err
	}
	_, err = snapshot.WriteFile(path, st)
	return err
}

// Resume reconstructs a mid-campaign runner from an exported state: the
// instance is regenerated from the config (it is a pure function of the
// seed), the memo is warm-started from the snapshot's entries, the trace
// clusters import their checkpoints, and execution continues at the
// recorded step.
func Resume(st *snapshot.State) (*Runner, error) {
	if len(st.Jobs) == 0 {
		return nil, fmt.Errorf("campaign: snapshot carries no cursor record")
	}
	var cur cursor
	if err := json.Unmarshal(st.Jobs[0].Payload, &cur); err != nil {
		return nil, fmt.Errorf("campaign: decoding cursor: %w", err)
	}
	if cur.Version != cursorVersion {
		return nil, fmt.Errorf("campaign: cursor version %d, this build reads %d", cur.Version, cursorVersion)
	}
	r, err := NewRunner(cur.Config)
	if err != nil {
		return nil, err
	}
	if len(st.Jobs) != 1+len(r.cfg.Profiles) {
		return nil, fmt.Errorf("campaign: snapshot carries %d cluster checkpoints for %d profiles", len(st.Jobs)-1, len(r.cfg.Profiles))
	}
	if cur.Next < 0 || cur.Next > len(r.inst.Steps) || cur.Next != len(cur.Steps) {
		return nil, fmt.Errorf("campaign: cursor at step %d with %d records over a %d-step instance", cur.Next, len(cur.Steps), len(r.inst.Steps))
	}
	for _, e := range st.MemoEntries {
		m, err := perf.DecodeMetrics(e.Metrics)
		if err != nil {
			return nil, fmt.Errorf("campaign: restoring memo entry %q: %w", e.Key, err)
		}
		r.memo.Restore(e.Key, m)
		// The bookkeeping gate's seen set is exactly the set of measured
		// keys, which the export preserves (campaigns abort on the first
		// eval error, so every memo entry is a completed success).
		r.seen[e.Key] = true
	}
	if r.memo.Size() != len(r.seen) {
		return nil, fmt.Errorf("campaign: snapshot carries duplicate memo keys")
	}
	for i, p := range r.cfg.Profiles {
		c := r.traces[p]
		if err := c.ImportState(st.Jobs[1+i].Payload); err != nil {
			return nil, fmt.Errorf("campaign: importing %s trace cluster: %w", p, err)
		}
		nodes := c.Nodes()
		cnt := make([]perf.Counters, 0, len(nodes))
		for _, n := range nodes {
			cnt = append(cnt, n.Counters())
		}
		r.lastCounters[p] = cnt
		r.lastElapsed[p] = c.Elapsed()
	}
	r.steps = cur.Steps
	r.next = cur.Next
	r.evaluations = cur.Evaluations
	r.cacheHits = cur.CacheHits
	return r, nil
}

// ResumeFile is Resume over a snapshot file written by WriteSnapshot.
func ResumeFile(path string) (*Runner, error) {
	st, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Resume(st)
}

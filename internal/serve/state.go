package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sync/atomic"
	"time"

	"dataproxy/internal/faultinject"
	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
)

// Restore outcomes as exposed in /metrics: exactly one of them is 1 after
// startup.  "none" means no snapshot existed (a genuine cold start).
const (
	RestoreNone            = "none"
	RestoreOK              = "ok"
	RestoreCorrupt         = "corrupt"
	RestoreVersionMismatch = "version_mismatch"
)

// snapshotFile is the snapshot's name inside the state directory.
const snapshotFile = "state.snap"

// stateManager owns proxyd's crash safety: it restores the result cache and
// job table from the state directory at startup and re-writes them there on
// a timer, on demand, and on graceful drain.  Every write goes through the
// internal/snapshot codec (atomic rename, per-record checksums), and every
// restore validates each record before trusting it — damaged state degrades
// to a cold start, never to a crash or a poisoned cache.
//
// The manager never touches the request hot path: the scheduler's warm-hit
// and admission code is unchanged, and snapshotting reads the memo through
// Export (its ordinary mutex) from one background goroutine.
type stateManager struct {
	dir string
	srv *Server

	// Durability gauges for /metrics.
	restoreOutcome   atomic.Value // string: RestoreNone/OK/Corrupt/VersionMismatch
	restoredEntries  atomic.Int64 // memo entries installed by restore
	invalidEntries   atomic.Int64 // snapshot entries rejected by invariant checks
	reenqueuedJobs   atomic.Int64 // unfinished jobs re-enqueued by restore
	lastSnapshotUnix atomic.Int64 // wall-clock seconds of the last good write
	lastSnapshotSize atomic.Int64 // bytes of the last good write
	writeErrors      atomic.Int64 // failed snapshot writes
}

func newStateManager(dir string, srv *Server) *stateManager {
	m := &stateManager{dir: dir, srv: srv}
	m.restoreOutcome.Store(RestoreNone)
	return m
}

func (m *stateManager) path() string { return filepath.Join(m.dir, snapshotFile) }

// outcome returns the restore outcome gauge value.
func (m *stateManager) outcome() string { return m.restoreOutcome.Load().(string) }

// restore loads the snapshot (if any) into the server's memo and job table.
// It classifies the outcome for /metrics, validates every metric vector
// before installing it, demotes running jobs to queued and re-enqueues them,
// and NEVER returns an error: any damage is logged and counted, and the
// server simply starts cold.
func (m *stateManager) restore() {
	if err := faultinject.Fire("serve.restore"); err != nil {
		log.Printf("proxyd: restore failed (injected): %v; starting cold", err)
		m.restoreOutcome.Store(RestoreCorrupt)
		return
	}
	st, err := snapshot.ReadFile(m.path())
	switch {
	case err != nil && errors.Is(err, snapshot.ErrVersion):
		log.Printf("proxyd: snapshot %s from a future version: %v; starting cold", m.path(), err)
		m.restoreOutcome.Store(RestoreVersionMismatch)
		return
	case err != nil && errors.Is(err, snapshot.ErrCorrupt):
		log.Printf("proxyd: snapshot %s is damaged: %v; starting cold", m.path(), err)
		m.restoreOutcome.Store(RestoreCorrupt)
		return
	case err != nil:
		// Includes the ordinary first boot (no snapshot yet).
		m.restoreOutcome.Store(RestoreNone)
		return
	}
	for _, e := range st.MemoEntries {
		var metrics perf.Metrics
		if err := metrics.UnmarshalJSON(e.Metrics); err != nil {
			m.invalidEntries.Add(1)
			log.Printf("proxyd: snapshot entry %q: undecodable metrics: %v; skipped", e.Key, err)
			continue
		}
		// Contract #8: restored state re-proves its invariants before it may
		// answer requests — a snapshot is input, not truth.
		if err := metrics.Validate(); err != nil {
			m.invalidEntries.Add(1)
			log.Printf("proxyd: snapshot entry %q violates invariants: %v; skipped", e.Key, err)
			continue
		}
		if m.srv.sched.memo.Restore(e.Key, metrics) {
			m.restoredEntries.Add(1)
		}
	}
	for _, je := range st.Jobs {
		var rec jobRecord
		if err := decodeJobRecord(je.Payload, &rec); err != nil {
			m.invalidEntries.Add(1)
			log.Printf("proxyd: snapshot job record undecodable: %v; skipped", err)
			continue
		}
		if !m.srv.jobs.restore(rec) || rec.Job.IsFinished() {
			continue
		}
		// Re-drive the job through the ordinary queue.  Its evaluations flow
		// through the restored memo, so a tune that was mid-flight converges
		// with memo hits instead of repeating finished measurements.
		select {
		case m.srv.tuneQueue <- tuneJob{id: rec.Job.ID, req: rec.Request}:
			m.reenqueuedJobs.Add(1)
		default:
			m.srv.jobs.finish(rec.Job.ID, nil,
				errors.New("serve: tune queue full at restore"), m.srv.now())
			log.Printf("proxyd: job %s could not be re-enqueued (queue full); marked failed", rec.Job.ID)
		}
	}
	m.restoreOutcome.Store(RestoreOK)
	log.Printf("proxyd: restored %d cache entries, re-enqueued %d jobs from %s",
		m.restoredEntries.Load(), m.reenqueuedJobs.Load(), m.path())
}

// decodeJobRecord decodes one snapshot job payload.  A done job's result
// vectors are raw bytes that the job body later serves verbatim, so they
// must decode as metric vectors of known metric names.
func decodeJobRecord(payload []byte, rec *jobRecord) error {
	if err := json.Unmarshal(payload, rec); err != nil {
		return err
	}
	if res := rec.Job.Result; res != nil {
		for _, raw := range []json.RawMessage{res.Target, res.ProxyMetrics} {
			var metrics perf.Metrics
			if err := metrics.UnmarshalJSON(raw); err != nil {
				return fmt.Errorf("job %s: %w", rec.Job.ID, err)
			}
		}
	}
	return nil
}

// collect assembles the snapshot state: the live memo's completed entries
// and every job record with its original request.
func (m *stateManager) collect() (*snapshot.State, error) {
	st := &snapshot.State{}
	for _, e := range m.srv.sched.memo.Export() {
		data, err := e.Metrics.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("serve: encoding cache entry %q: %w", e.Key, err)
		}
		st.MemoEntries = append(st.MemoEntries, snapshot.MemoEntry{Key: e.Key, Metrics: data})
	}
	for _, rec := range m.srv.jobs.snapshot() {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("serve: encoding job %s: %w", rec.Job.ID, err)
		}
		st.Jobs = append(st.Jobs, snapshot.JobEntry{Payload: payload})
	}
	return st, nil
}

// snapshotNow writes one snapshot.  Failures are logged and counted, never
// fatal: the previous on-disk snapshot stays intact (the codec renames over
// it only after a full, synced write).
func (m *stateManager) snapshotNow() error {
	err := faultinject.Fire("serve.snapshot.write")
	var size int64
	if err == nil {
		var st *snapshot.State
		st, err = m.collect()
		if err == nil {
			size, err = snapshot.WriteFile(m.path(), st)
		}
	}
	if err != nil {
		m.writeErrors.Add(1)
		log.Printf("proxyd: snapshot write failed: %v", err)
		return err
	}
	m.lastSnapshotUnix.Store(m.srv.now().Unix())
	m.lastSnapshotSize.Store(size)
	return nil
}

// snapshotLoop writes periodic snapshots until the server stops.  It runs on
// its own goroutine — never on a request or dispatcher goroutine — so the
// serving hot path stays untouched.
func (m *stateManager) snapshotLoop(interval time.Duration) {
	defer m.srv.done.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.srv.stop:
			return
		case <-ticker.C:
			_ = m.snapshotNow()
		}
	}
}

package serve

import (
	"fmt"
	"sync"
	"time"

	"dataproxy/pkg/client"
)

// jobRecord is one asynchronous proxy-qualification job: its GET
// /v1/jobs/{id} body plus the original tuning request, retained so an
// unfinished job can be snapshotted and re-driven after a restart.  The
// record is also the job's snapshot payload, so its JSON shape is the
// durable format.
type jobRecord struct {
	Job     client.JobResponse `json:"job"`
	Request client.TuneRequest `json:"request"`
}

// jobStore is an in-memory job registry.  It is the persistence boundary a
// future PR can move behind an interface; today jobs live in the process,
// bounded by cap: once the store exceeds it, the oldest finished jobs are
// pruned (queued/running jobs are never pruned), so a long-running daemon's
// job history cannot grow its heap without bound.
type jobStore struct {
	mu    sync.Mutex
	seq   int
	cap   int
	jobs  map[string]*jobRecord
	order []string // every job's ID in creation order, for pruning oldest finished jobs first
}

func newJobStore(cap int) *jobStore {
	return &jobStore{cap: cap, jobs: make(map[string]*jobRecord)}
}

// create registers a new queued job and returns a snapshot of it.
func (js *jobStore) create(req client.TuneRequest, now time.Time) client.JobResponse {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.seq++
	rec := &jobRecord{
		Job: client.JobResponse{
			ID:       fmt.Sprintf("job-%d", js.seq),
			State:    client.JobQueued,
			Workload: req.Workload,
			Arch:     req.Arch,
			Created:  now,
		},
		Request: req,
	}
	js.jobs[rec.Job.ID] = rec
	js.order = append(js.order, rec.Job.ID)
	js.pruneLocked()
	return rec.Job
}

// restore re-installs a job from a snapshot under its ORIGINAL ID, so
// clients polling a job across a daemon restart keep getting answers.  A
// snapshotted running job is demoted to queued (its execution died with the
// old process; the caller re-enqueues it).  The ID counter advances past
// every restored ID so new jobs never collide with restored ones.  Restoring
// an ID that already exists is refused: live state beats a stale import.
func (js *jobStore) restore(rec jobRecord) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	id := rec.Job.ID
	if _, exists := js.jobs[id]; exists {
		return false
	}
	if rec.Job.State == client.JobRunning {
		rec.Job.State = client.JobQueued
	}
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > js.seq {
		js.seq = n
	}
	js.jobs[id] = &rec
	js.order = append(js.order, id)
	js.pruneLocked()
	return true
}

// snapshot returns a copy of every job record in creation order, for the
// state manager to persist.
func (js *jobStore) snapshot() []jobRecord {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]jobRecord, 0, len(js.jobs))
	for _, id := range js.order {
		out = append(out, *js.jobs[id])
	}
	return out
}

// pruneLocked drops the oldest finished jobs until the store fits the cap.
// Callers hold mu.
func (js *jobStore) pruneLocked() {
	if js.cap <= 0 || len(js.jobs) <= js.cap {
		return
	}
	kept := js.order[:0]
	for _, id := range js.order {
		if len(js.jobs) > js.cap && js.jobs[id].Job.IsFinished() {
			delete(js.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	js.order = kept
}

// get returns a snapshot of the job's body by ID.
func (js *jobStore) get(id string) (client.JobResponse, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec, ok := js.jobs[id]
	if !ok {
		return client.JobResponse{}, false
	}
	return rec.Job, true
}

// remove deletes a job record and its place in the creation order
// outright.  It is used when a job was created but could not be queued (the
// client got a 429 and never saw the ID), so shed requests do not grow the
// store.  A shed job was just created, so the scan starts at the newest.
func (js *jobStore) remove(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	delete(js.jobs, id)
	for i := len(js.order) - 1; i >= 0; i-- {
		if js.order[i] == id {
			js.order = append(js.order[:i], js.order[i+1:]...)
			return
		}
	}
}

// setRunning marks the job as executing.
func (js *jobStore) setRunning(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if rec := js.jobs[id]; rec != nil {
		rec.Job.State = client.JobRunning
	}
}

// finish records the job outcome: done with a result, or failed with an
// error message.
func (js *jobStore) finish(id string, res *client.TuneResult, err error, now time.Time) {
	js.mu.Lock()
	defer js.mu.Unlock()
	rec := js.jobs[id]
	if rec == nil {
		return
	}
	j := &rec.Job
	j.Finished = now
	if err != nil {
		j.State = client.JobFailed
		j.Error = err.Error()
	} else {
		j.State = client.JobDone
		j.Result = res
	}
	js.pruneLocked()
}

// counts returns the number of jobs per state, for the /metrics endpoint.
func (js *jobStore) counts() map[string]int {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make(map[string]int, 4)
	for _, rec := range js.jobs {
		out[rec.Job.State]++
	}
	return out
}

// Package parallel is the shared worker-pool execution engine used by the
// compute hot paths (the aimotif kernels, the dataflow forward passes and
// the sim cluster's per-node task groups) and by the experiment harness.
//
// The engine bounds the total host concurrency of the whole process with one
// global pool of Workers()-1 helper goroutines, started when the worker
// count is set and parked until work arrives.  A call to For or Do always
// executes on the calling goroutine and additionally hands its job to
// helpers only while some are idle: an idle helper is a free slot, and a
// dispatch never waits for one.  Nested parallelism (a parallel kernel
// inside a parallel cluster stage inside a parallel table generation)
// therefore degrades gracefully to sequential execution instead of
// oversubscribing the machine.  Because the helpers outlive every dispatch,
// recruiting one starts no goroutine and allocates nothing.  With a single
// worker (the default on a one-CPU host) there are no helpers and every
// call runs inline, so sequential behaviour is the natural fallback, and
// results are bit-identical between the sequential and parallel paths
// because work items only ever write disjoint outputs.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the current helper pool: Workers()-1 helpers, because the calling
// goroutine always counts as the first worker.
var pool atomic.Pointer[poolState]

type poolState struct {
	workers int
	// jobs is unbuffered: a dispatch's non-blocking send succeeds only
	// while a helper is parked on the receive, that is, idle.
	jobs chan *forJob
	// retire is closed when SetWorkers replaces the pool, so its helpers
	// exit once they are idle.
	retire chan struct{}
}

func init() {
	SetWorkers(0)
}

func newPool(workers int) *poolState {
	p := &poolState{workers: workers, jobs: make(chan *forJob), retire: make(chan struct{})}
	for i := 0; i < workers-1; i++ {
		go p.helper()
	}
	return p
}

// helper is the body of one pool helper: it works on every job it is
// handed until the pool is retired.
func (p *poolState) helper() {
	for {
		select {
		case j := <-p.jobs:
			j.work()
			j.wg.Done()
		case <-p.retire:
			return
		}
	}
}

// Workers returns the configured worker count (≥ 1).
func Workers() int { return pool.Load().workers }

// SetWorkers fixes the engine's worker count and returns the previous value.
// n <= 0 selects runtime.GOMAXPROCS(0) (which follows runtime.NumCPU unless
// overridden).  The previous pool's helpers exit once they are idle;
// SetWorkers does not wait for them, because a helper finishes the job it
// holds first and that job may be the one calling SetWorkers.  SetWorkers
// is intended for process start-up (flag parsing, TestMain, benchmark
// set-up); calls racing with in-flight For/Do work leave that work on the
// pool it started with.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	prev := pool.Swap(newPool(n))
	if prev == nil {
		return 0
	}
	close(prev.retire)
	return prev.workers
}

// Runner is a chunk of parallel work dispatched by ForRunner.  Hot kernels
// implement it on a long-lived struct (typically scratch state owned by a
// measurement session) so dispatching a parallel region costs zero
// allocations: a closure passed to For escapes to the heap at every call
// site because helper goroutines may capture it, whereas a *T Runner is a
// pointer that already lives on the heap.
type Runner interface {
	// Run processes items [lo, hi); chunks are disjoint and cover the
	// dispatched range exactly, so implementations that write only to
	// outputs derived from [lo, hi) are race-free.
	Run(lo, hi int)
}

// funcRunner adapts a closure to Runner for For.
type funcRunner func(lo, hi int)

// Run implements Runner.
func (f funcRunner) Run(lo, hi int) { f(lo, hi) }

// For partitions [0, n) into contiguous chunks of at least minGrain items
// and runs fn(lo, hi) on each chunk, using up to Workers() goroutines
// (including the caller).  It returns when every chunk has completed.  A
// panic in any chunk is re-raised on the calling goroutine after all other
// chunks finish.
//
// Chunks are disjoint, cover [0, n) exactly, and are handed out in index
// order, so callers that write only to out[lo:hi] are race-free and produce
// output independent of the worker count.
//
// The fn closure escapes to the heap on every call; allocation-free hot
// paths use ForRunner instead.
func For(n, minGrain int, fn func(lo, hi int)) {
	ForRunner(n, minGrain, funcRunner(fn))
}

// ForRunner is For with the work expressed as a reusable Runner instead of
// a closure.  Passing a pointer-typed Runner whose value outlives the call
// (session scratch state) keeps the dispatch allocation-free, which is what
// the zero-alloc steady-state benchmarks of the measurement path gate on.
func ForRunner(n, minGrain int, r Runner) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	p := pool.Load()
	chunks := p.workers
	if byGrain := (n + minGrain - 1) / minGrain; byGrain < chunks {
		chunks = byGrain
	}
	if chunks <= 1 {
		r.Run(0, n)
		return
	}

	var j *forJob
	select {
	case j = <-freeJobs:
	default:
		j = new(forJob)
	}
	j.r, j.n, j.chunks = r, n, chunks
	j.next = 0
	j.panicked.Store(nil)
recruit:
	for helpers := 0; helpers < chunks-1; helpers++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.wg.Done()
			break recruit // no idle helper; the caller runs the rest inline
		}
	}
	j.work()
	j.wg.Wait()
	rec := j.panicked.Load()
	j.r = nil
	select {
	case freeJobs <- j:
	default:
	}
	if rec != nil {
		panic(rec.value)
	}
}

// freeJobs recycles the per-call dispatch state of ForRunner's parallel
// path; a helper touches a job only before its wg.Done, so after wg.Wait
// the job can be reused by the next call without a fresh heap allocation.
// It is a channel rather than a sync.Pool because a sync.Pool allocates
// whenever jobs taken on one P are returned on another, which a dispatch
// that waits for its helpers does all the time.  The capacity bounds only
// the idle jobs kept: each goroutine inside a dispatch holds one job, and
// 64 covers the three-deep nests (kernel in cluster stage in fan-out) at
// tens of workers; a job returned to a full list is left to the collector.
var freeJobs = make(chan *forJob, 64)

// forJob is the shared state of one ForRunner dispatch: the runner, the
// chunk cursor, the first recovered panic, and the helper bookkeeping.
type forJob struct {
	r         Runner
	n, chunks int
	next      int64
	panicked  atomic.Pointer[recovered]
	wg        sync.WaitGroup
}

// work claims chunks off the shared cursor until none remain.
func (j *forJob) work() {
	for {
		i := int(atomic.AddInt64(&j.next, 1)) - 1
		if i >= j.chunks {
			return
		}
		j.runChunk(i*j.n/j.chunks, (i+1)*j.n/j.chunks)
	}
}

// runChunk runs one chunk, recording (not propagating) a panic so the
// remaining chunks still complete and the caller re-raises afterwards.
func (j *forJob) runChunk(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &recovered{r})
		}
	}()
	j.r.Run(lo, hi)
}

type recovered struct{ value any }

// Do runs the given functions concurrently on up to Workers() goroutines
// (including the caller) and returns when all of them have finished.  It is
// the fan-out primitive for heterogeneous work such as generating the
// independent real/proxy reports of an experiment table.
func Do(fns ...func()) {
	For(len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

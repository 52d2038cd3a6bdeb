package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1023} {
		seen := make([]int32, n)
		For(n, 1, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("chunk [%d,%d) outside [0,%d)", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForHonorsMinGrain(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	var chunks int32
	For(10, 100, func(lo, hi int) { atomic.AddInt32(&chunks, 1) })
	if chunks != 1 {
		t.Fatalf("10 items with grain 100 should run as one chunk, got %d", chunks)
	}
	chunks = 0
	For(1000, 250, func(lo, hi int) {
		if hi-lo < 125 { // chunks are n/chunkCount sized, at least grain/2 each
			t.Errorf("chunk [%d,%d) smaller than expected", lo, hi)
		}
		atomic.AddInt32(&chunks, 1)
	})
	if chunks > 4 {
		t.Fatalf("1000 items with grain 250 should make at most 4 chunks, got %d", chunks)
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(1)", Workers())
	}
	order := []int{}
	For(5, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			order = append(order, i) // safe: single worker means inline execution
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline execution should be in order, got %v", order)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	n := 10000
	seq := make([]float64, n)
	orig := SetWorkers(1)
	defer SetWorkers(orig)
	For(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seq[i] = float64(i) * 1.5
		}
	})
	par := make([]float64, n)
	prev := SetWorkers(7)
	For(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			par[i] = float64(i) * 1.5
		}
	})
	SetWorkers(prev)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel result diverged at %d", i)
		}
	}
}

func TestForPropagatesPanic(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("expected panic \"boom\", got %v", r)
		}
	}()
	For(16, 1, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

func TestDoRunsAllFunctions(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	var ran [5]int32
	fns := make([]func(), len(ran))
	for i := range fns {
		i := i
		fns[i] = func() { atomic.AddInt32(&ran[i], 1) }
	}
	Do(fns...)
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("fn %d ran %d times", i, c)
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	var total int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, 1, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 64 {
		t.Fatalf("nested loops covered %d items, want 64", total)
	}
}

// countRunner is a pointer Runner, the allocation-free way to dispatch.
type countRunner struct{ items atomic.Int64 }

func (c *countRunner) Run(lo, hi int) { c.items.Add(int64(hi - lo)) }

// Recruiting helpers allocates nothing: they outlive every dispatch.  The
// worker count is set explicitly, so helpers engage even on one CPU.
func TestForRunnerDispatchDoesNotAllocate(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	r := &countRunner{}
	allocs := testing.AllocsPerRun(200, func() { ForRunner(64, 1, r) })
	if allocs != 0 {
		t.Fatalf("ForRunner allocated %.2f times per dispatch, want 0", allocs)
	}
	if got := r.items.Load(); got != 201*64 {
		t.Fatalf("runner covered %d items, want %d", got, 201*64)
	}
}

// Replacing the pool retires the old pool's helpers, so repeated SetWorkers
// calls do not leak goroutines.
func TestSetWorkersRetiresHelpers(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	r := &countRunner{}
	ForRunner(64, 1, r)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		SetWorkers(4)
		ForRunner(64, 1, r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across 50 SetWorkers calls", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

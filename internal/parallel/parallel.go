// Package parallel provides the intra-node threading substrate used by the
// compute kernels: a fixed worker pool with a static-chunk parallel-for.
//
// It plays the role OpenMP plays in the paper's MKL-DNN kernels: thread
// decomposition over the output voxel space with one contiguous range per
// worker, so each "thread" writes to a disjoint block (§III-C).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of reusable workers. A Pool with zero or one
// worker executes loop bodies inline, which keeps small problems cheap and
// makes single-threaded runs exactly deterministic.
type Pool struct {
	n      int
	tasks  chan task
	wg     sync.WaitGroup // tracks live workers for Close
	once   sync.Once
	closed atomic.Bool
}

type task struct {
	fn   func(lo, hi int)
	lo   int
	hi   int
	done *sync.WaitGroup
}

// NewPool creates a pool with n workers. If n <= 0, runtime.GOMAXPROCS(0)
// workers are used.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{n: n}
	if n > 1 {
		p.tasks = make(chan task, 4*n)
		for i := 0; i < n; i++ {
			p.wg.Add(1)
			go p.worker()
		}
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.fn(t.lo, t.hi)
		t.done.Done()
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.n }

// Close shuts the pool's workers down. It is safe to call more than once.
// For remains usable after Close: loop bodies simply run inline on the
// calling goroutine.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.closed.Store(true)
		if p.tasks != nil {
			close(p.tasks)
			p.wg.Wait()
		}
	})
}

// For splits the index range [0, n) into contiguous chunks and invokes
// fn(lo, hi) on the pool's workers, blocking until every chunk completes.
// Chunks are at least minGrain wide (except possibly the last), so tiny loops
// do not pay scheduling overhead. fn must be safe to call concurrently for
// disjoint ranges.
func (p *Pool) For(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	if p.n <= 1 || n <= minGrain || p.closed.Load() {
		fn(0, n)
		return
	}
	chunks := p.n
	if c := (n + minGrain - 1) / minGrain; c < chunks {
		chunks = c
	}
	size := (n + chunks - 1) / chunks
	done := waitGroups.Get().(*sync.WaitGroup)
	lo := 0
	for ; lo+size < n; lo += size {
		done.Add(1)
		p.tasks <- task{fn: fn, lo: lo, hi: lo + size, done: done}
	}
	// Run the final chunk on the calling goroutine so the caller contributes
	// work instead of idling, mirroring the OpenMP master thread (§V-B).
	fn(lo, n)
	done.Wait()
	waitGroups.Put(done)
}

// waitGroups recycles For's completion counters, so a parallel loop whose
// body is a prebuilt function does not allocate.
var waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// ForEach invokes fn(i) for every i in [0, n) using the pool.
func (p *Pool) ForEach(n, minGrain int, fn func(i int)) {
	p.For(n, minGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Default is a process-wide pool sized to GOMAXPROCS, for callers that do not
// manage their own.
var Default = NewPool(0)

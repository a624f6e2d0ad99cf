// Package exec is the process-wide bounded executor behind the search
// pipeline's one fan-out: core.FindNCBatch compares the queries of a batch
// at once through RunWorkersCtx. Every other stage runs on its request's
// goroutine.
//
// The shared pool caps the process at one fixed set of goroutines, so
// hundreds of concurrent batches do not multiply by their worker counts.
// A hand-off is direct, with inline fallback: a worker goes to an idle
// pool goroutine or, when none is idle, runs on the caller before the
// next is tried. So there is no queue to grow with offered load, and a
// nested call never waits on a pool goroutine, so it cannot deadlock.
// The caller's workers write disjoint slots, so where one ran never
// changes a bit of the result.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of goroutines accepting direct hand-offs; the
// process has one, Default. busy and inline back PoolStats.
type Pool struct {
	tasks        chan func()
	workers      int
	busy, inline atomic.Int64
}

// newPool starts exactly workers goroutines (minimum 1), parked on a
// channel receive while idle, for the life of the process.
func newPool(workers int) *Pool {
	workers = max(workers, 1)
	p := &Pool{tasks: make(chan func()), workers: workers}
	for i := 0; i < workers; i++ {
		go func() {
			for task := range p.tasks {
				p.busy.Add(1)
				task()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// PoolStats is a point-in-time snapshot of a pool's load counters.
type PoolStats struct {
	// Workers is the fixed goroutine count the pool was built with.
	Workers int
	// Busy is the number of tasks running on pool goroutines right now;
	// Busy/Workers is the pool's utilization.
	Busy int64
	// InlineRuns counts, cumulatively, workers run on their caller because
	// no pool goroutine was idle: with no queue, its growth is the pressure
	// signal of offered load exceeding Workers.
	InlineRuns int64
}

// Stats returns the pool's load counters, each sampled independently
// (Busy can drift by a task between reads). Safe for concurrent use.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.workers,
		Busy:       p.busy.Load(),
		InlineRuns: p.inline.Load(),
	}
}

// Default returns the process-wide shared pool, created on first use with
// GOMAXPROCS workers, one per schedulable core.
func Default() *Pool { return defaultPool() }

var defaultPool = sync.OnceValue(func() *Pool { return newPool(runtime.GOMAXPROCS(0)) })

// RunWorkersCtx runs `run` workers times on the default pool — workers−1
// handed off, one on the caller — and returns when all have finished. run
// is a self-scheduling worker (draining a claim counter) that checks ctx
// between items, so a run spilled inline on a busy pool only reduces
// concurrency, never the work done. Once ctx is done no further run
// starts, the caller's own included; the caller then abandons the output.
func RunWorkersCtx(ctx context.Context, workers int, run func()) {
	Default().runWorkers(ctx, workers, run)
}

// runWorkers is RunWorkersCtx on p.
func (p *Pool) runWorkers(ctx context.Context, workers int, run func()) {
	var wg sync.WaitGroup
	task := func() {
		defer wg.Done()
		run()
	}
	for w := 1; w < workers && ctx.Err() == nil; w++ {
		wg.Add(1)
		// The unbuffered send succeeds only when a pool goroutine is parked
		// on the receive: a true idleness probe.
		select {
		case p.tasks <- task:
		default:
			p.inline.Add(1)
			task()
		}
	}
	if ctx.Err() == nil {
		run()
	}
	wg.Wait()
}

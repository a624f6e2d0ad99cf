// Package exec provides the process-wide bounded executor behind the
// search pipeline's one fan-out: core.FindNCBatch compares the queries of
// a batch at once on it. Every other stage — context selection, and the
// label tests of a single query or a stream — runs on its request's
// goroutine.
//
// A serving host running hundreds of concurrent searches must not
// multiply every batch by its worker count, so the shared pool caps the
// process at one fixed set of workers; a caller submits shards and keeps
// one shard for itself.
//
// # Design
//
// Submission is direct handoff with inline fallback: Group.Go hands the
// task to an idle pool worker, or — when every worker is busy — runs it on
// the calling goroutine before returning. This has two consequences that
// shape the whole package:
//
//   - No unbounded queue: total concurrency is workers + submitters, both
//     bounded, and memory cannot grow with offered load.
//   - No nesting deadlock: a task that itself submits to the pool can
//     never wedge waiting for workers that are themselves waiting — a
//     task that finds no idle worker simply runs inline, so progress is
//     guaranteed by construction.
//
// Correctness of callers does not depend on where a task runs: every call
// site partitions work into independent shards writing disjoint outputs,
// so results are bitwise identical whether a shard ran on a pool worker or
// inline on the submitter.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of worker goroutines accepting direct task
// handoffs. The zero value is not usable; construct with NewPool.
type Pool struct {
	tasks   chan func()
	workers int
	// busy gauges tasks currently running on pool workers; inline counts
	// (cumulatively) tasks a Group ran on the submitter because no worker
	// was idle — the pool's saturation signal, since direct handoff has no
	// queue whose depth could grow.
	busy   atomic.Int64
	inline atomic.Int64
}

// NewPool starts a pool of exactly workers goroutines (minimum 1). The
// workers live for the life of the process; a Pool has no Close because
// its idle cost is workers goroutines parked on a channel receive.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan func()), workers: workers}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for task := range p.tasks {
		p.busy.Add(1)
		task()
		p.busy.Add(-1)
	}
}

// PoolStats is a point-in-time snapshot of a pool's load counters.
type PoolStats struct {
	// Workers is the fixed goroutine count the pool was built with.
	Workers int
	// Busy is the number of tasks running on pool workers right now — the
	// executor's in-flight gauge. Busy/Workers is the pool's utilization.
	Busy int64
	// InlineRuns counts, cumulatively, Group tasks that ran inline on
	// their submitter because every worker was busy. Direct handoff means
	// the pool has no queue — a growing InlineRuns is the queue-pressure
	// signal: offered load exceeding Workers.
	InlineRuns int64
}

// Stats returns the pool's current load counters. Safe for concurrent use;
// the fields are sampled independently (Busy can drift by a task between
// reads), which is fine for admission gates and stats endpoints.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.workers,
		Busy:       p.busy.Load(),
		InlineRuns: p.inline.Load(),
	}
}

// TrySubmit hands task to an idle worker, reporting false — without
// running the task — when every worker is busy. The unbuffered channel
// makes the select a true idleness probe: the send succeeds only when a
// worker is parked on the receive.
func (p *Pool) TrySubmit(task func()) bool {
	select {
	case p.tasks <- task:
		return true
	default:
		return false
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use with
// GOMAXPROCS workers — one per schedulable core, matching the parallelism
// the runtime will actually grant.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

// Group tracks a set of tasks submitted to one pool under a cancellation
// context, à la sync.WaitGroup. Construct with NewGroupCtx; a Group must
// not be copied and is not reusable after Wait returns.
type Group struct {
	pool *Pool
	ctx  context.Context
	wg   sync.WaitGroup
}

// NewGroupCtx returns a Group submitting to p whose Go becomes a no-op
// once ctx is cancelled: tasks not yet handed off are dropped rather than
// started. Tasks already running are not interrupted — cancellation-aware
// tasks check ctx themselves between work items — so a cancelled Group's
// Wait returns as soon as the in-flight tasks drain.
func NewGroupCtx(ctx context.Context, p *Pool) *Group {
	return &Group{pool: p, ctx: ctx}
}

// Go runs task on an idle pool worker, or inline on the caller when none
// is idle (see the package comment for why this never deadlocks). Inline
// execution means Go can block for the task's full duration; callers
// submitting N shards typically submit N−1 and run the last themselves,
// so the inline case costs nothing extra.
func (g *Group) Go(task func()) {
	if g.ctx.Err() != nil {
		return
	}
	g.wg.Add(1)
	wrapped := func() {
		defer g.wg.Done()
		task()
	}
	if !g.pool.TrySubmit(wrapped) {
		g.pool.inline.Add(1)
		wrapped()
	}
}

// Wait blocks until every task passed to Go has finished.
func (g *Group) Wait() {
	g.wg.Wait()
}

// RunWorkersCtx runs `run` on up to workers concurrent executions drawn
// from the default pool — workers−1 submitted, one inline on the caller —
// and returns when all have finished. It is the batch search's worker
// fan: run is a self-scheduling worker (typically draining an atomic claim counter) that checks ctx
// between work items, so executing it fewer times than requested, or
// entirely inline on a busy pool, only reduces concurrency, never the work
// done. Workers not yet launched when ctx is cancelled never start, and
// the inline execution is skipped when ctx is already done; under
// cancellation the caller abandons the output entirely, so dropped
// workers never corrupt a result. workers <= 1 runs serially.
func RunWorkersCtx(ctx context.Context, workers int, run func()) {
	g := NewGroupCtx(ctx, Default())
	for w := 1; w < workers; w++ {
		g.Go(run)
	}
	if ctx.Err() == nil {
		run()
	}
	g.Wait()
}

package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// hold occupies every goroutine of p with a task, counted in g when g is
// non-nil, that blocks until the returned release is called. A blocking
// send lands only on a parked goroutine, and a goroutine running a held
// task takes no other, so once hold returns p has no idle goroutine and
// Busy counts every held task.
func hold(p *Pool, g *peakGauge) (release func()) {
	gate := make(chan struct{})
	started := make(chan struct{}, p.workers)
	for i := 0; i < p.workers; i++ {
		p.tasks <- func() {
			if g != nil {
				g.enter()
				defer g.leave()
			}
			started <- struct{}{}
			<-gate
		}
	}
	for i := 0; i < p.workers; i++ {
		<-started
	}
	return func() { close(gate) }
}

// peakGauge tracks how many runs are in flight and the most ever at once.
type peakGauge struct{ cur, peak atomic.Int64 }

func (g *peakGauge) enter() {
	cur := g.cur.Add(1)
	for old := g.peak.Load(); cur > old && !g.peak.CompareAndSwap(old, cur); old = g.peak.Load() {
	}
}

func (g *peakGauge) leave() { g.cur.Add(-1) }

// TestPoolConcurrencyBound: at most workers+1 runs are in flight at once
// (the pool's goroutines plus the caller). With every pool goroutine held
// mid-task, each of a call's runs executes inline beside them, so the
// bound is reached exactly; once released, later calls stay within it.
func TestPoolConcurrencyBound(t *testing.T) {
	const workers = 3
	p := newPool(workers)
	var g peakGauge
	run := func() {
		g.enter()
		g.leave()
	}
	release := hold(p, &g)
	p.runWorkers(context.Background(), 10, run)
	if got := g.peak.Load(); got != workers+1 {
		t.Fatalf("peak concurrency on a held pool %d, want exactly %d (workers + caller)", got, workers+1)
	}
	release()
	for i := 0; i < 200; i++ {
		p.runWorkers(context.Background(), 10, run)
	}
	if got := g.peak.Load(); got > workers+1 {
		t.Fatalf("peak concurrency %d, want <= %d (workers + caller)", got, workers+1)
	}
}

// TestGroupRunsEveryTask: one call's claim loop processes every item
// exactly once, and run executes exactly workers times, when most runs
// find no idle goroutine on a small pool and spill inline.
func TestGroupRunsEveryTask(t *testing.T) {
	const workers, items = 8, 1000
	p := newPool(2)
	counts := make([]atomic.Int32, items)
	var runs, next atomic.Int64
	p.runWorkers(context.Background(), workers, func() {
		runs.Add(1)
		for i := next.Add(1) - 1; i < items; i = next.Add(1) - 1 {
			counts[i].Add(1)
		}
	})
	if n := runs.Load(); n != workers {
		t.Fatalf("run executed %d times, want %d", n, workers)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("item %d ran %d times, want 1", i, n)
		}
	}
}

// TestGroupsShareOnePool: concurrent callers sharing one pool each get
// exactly workers executions of run under a live ctx, and their claim
// loops process every item exactly once, whether a run was handed off or
// ran inline.
func TestGroupsShareOnePool(t *testing.T) {
	const callers, workers, items = 8, 4, 500
	p := newPool(2)
	counts := make([]atomic.Int32, callers*items)
	runs := make([]atomic.Int32, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var next atomic.Int64
			p.runWorkers(context.Background(), workers, func() {
				runs[c].Add(1)
				for i := next.Add(1) - 1; i < items; i = next.Add(1) - 1 {
					counts[c*items+int(i)].Add(1)
				}
			})
		}()
	}
	wg.Wait()
	for c := range runs {
		if n := runs[c].Load(); n != workers {
			t.Fatalf("caller %d: run executed %d times, want %d", c, n, workers)
		}
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("caller %d item %d ran %d times, want 1", i/items, i%items, n)
		}
	}
}

// TestNestedRunWorkersNoDeadlock: runs that themselves fan out through the
// same pool complete — a nested call that finds no idle goroutine runs
// inline — even when the nesting exceeds the worker count.
func TestNestedRunWorkersNoDeadlock(t *testing.T) {
	p := newPool(2)
	var ran atomic.Int64
	p.runWorkers(context.Background(), 8, func() {
		p.runWorkers(context.Background(), 8, func() { ran.Add(1) })
	})
	if ran.Load() != 64 {
		t.Fatalf("%d inner runs, want 64", ran.Load())
	}
}

// TestDefaultPoolSingleton: Default returns one shared pool.
func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same pool")
	}
}

package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolConcurrencyBound: a pool of w workers runs at most w tasks on
// pool goroutines; with the submitter running fallbacks inline, observed
// concurrency never exceeds w+1 (workers plus the one submitting
// goroutine).
func TestPoolConcurrencyBound(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var inFlight, peak atomic.Int64
	g := NewGroupCtx(context.Background(), p)
	for i := 0; i < 50; i++ {
		g.Go(func() {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		})
	}
	g.Wait()
	if got := peak.Load(); got > workers+1 {
		t.Fatalf("peak concurrency %d, want <= %d (workers + submitter)", got, workers+1)
	}
}

// TestGroupRunsEveryTask: every submitted task runs exactly once whether
// it was handed off or ran inline.
func TestGroupRunsEveryTask(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	g := NewGroupCtx(context.Background(), p)
	for i := 0; i < 1000; i++ {
		g.Go(func() { ran.Add(1) })
	}
	g.Wait()
	if ran.Load() != 1000 {
		t.Fatalf("%d tasks ran, want 1000", ran.Load())
	}
}

// TestNestedGroupsNoDeadlock: tasks that themselves fan out through the
// same pool must complete — the inline fallback guarantees progress even
// when the nesting exceeds the worker count.
func TestNestedGroupsNoDeadlock(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		outer := NewGroupCtx(context.Background(), p)
		for i := 0; i < 8; i++ {
			outer.Go(func() {
				inner := NewGroupCtx(context.Background(), p)
				for j := 0; j < 8; j++ {
					inner.Go(func() { ran.Add(1) })
				}
				inner.Wait()
			})
		}
		outer.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested groups deadlocked")
	}
	if ran.Load() != 64 {
		t.Fatalf("%d inner tasks ran, want 64", ran.Load())
	}
}

// TestGroupsShareOnePool: many concurrent groups over one pool all
// complete and never lose a task.
func TestGroupsShareOnePool(t *testing.T) {
	p := NewPool(4)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewGroupCtx(context.Background(), p)
			for i := 0; i < 100; i++ {
				g.Go(func() { ran.Add(1) })
			}
			g.Wait()
		}()
	}
	wg.Wait()
	if ran.Load() != 1600 {
		t.Fatalf("%d tasks ran, want 1600", ran.Load())
	}
}

// TestDefaultPoolSingleton: Default returns one shared pool.
func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same pool")
	}
}

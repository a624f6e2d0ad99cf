package exec

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestGroupCtxCancelledDropsTasks: Go on a cancelled group is a no-op —
// no execution, no Wait leak.
func TestGroupCtxCancelledDropsTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroupCtx(ctx, Default())
	var ran atomic.Int64
	g.Go(func() { ran.Add(1) })
	g.Wait()
	if ran.Load() != 1 {
		t.Fatalf("live group ran %d tasks, want 1", ran.Load())
	}
	cancel()
	g2 := NewGroupCtx(ctx, Default())
	g2.Go(func() { ran.Add(1) })
	g2.Wait()
	if ran.Load() != 1 {
		t.Fatal("cancelled group still ran a task")
	}
}

// TestRunWorkersCtx: under a live ctx the claim loop drains everything; a
// pre-cancelled ctx runs nothing, including the inline share.
func TestRunWorkersCtx(t *testing.T) {
	var next, done atomic.Int64
	const items = 50
	run := func() {
		for {
			i := next.Add(1) - 1
			if i >= items {
				return
			}
			done.Add(1)
		}
	}
	RunWorkersCtx(context.Background(), 4, run)
	if done.Load() != items {
		t.Fatalf("live ctx drained %d of %d items", done.Load(), items)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	RunWorkersCtx(ctx, 4, func() { ran.Add(1) })
	if ran.Load() != 0 {
		t.Fatalf("cancelled RunWorkersCtx executed %d workers", ran.Load())
	}
}

// TestRunWorkersCtxMidCancellation: workers observing the cancel in
// their claim loop stop early; RunWorkersCtx still returns (no deadlock)
// and no new work starts after the cancel settles.
func TestRunWorkersCtxMidCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var claimed atomic.Int64
	const items = 1 << 20
	run := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			i := claimed.Add(1)
			if i >= items {
				return
			}
			if i == 10 {
				cancel()
			}
		}
	}
	RunWorkersCtx(ctx, 4, run)
	if c := claimed.Load(); c >= items {
		t.Fatalf("claim loop drained all %d items despite cancellation", c)
	}
	cancel()
}

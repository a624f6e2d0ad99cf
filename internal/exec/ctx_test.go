package exec

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunWorkersCtx: under a live ctx the claim loop drains everything.
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
}

// TestGroupCtxCancelledDropsTasks: a pre-cancelled ctx runs nothing,
// including the caller's own share, and hands off or spills nothing onto
// a saturated pool.
func TestGroupCtxCancelledDropsTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	RunWorkersCtx(ctx, 4, func() { ran.Add(1) })
	if ran.Load() != 0 {
		t.Fatalf("cancelled RunWorkersCtx executed %d workers", ran.Load())
	}
	p := newPool(2)
	release := hold(p, nil)
	defer release()
	p.runWorkers(ctx, 4, func() { ran.Add(1) })
	if s := p.Stats(); ran.Load() != 0 || s.InlineRuns != 0 {
		t.Fatalf("cancelled call on a held pool: %d runs, stats %+v", ran.Load(), s)
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

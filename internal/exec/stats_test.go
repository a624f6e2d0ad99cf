package exec

import (
	"context"
	"testing"
	"time"
)

// waitFor polls cond for up to ~2s — gauge updates race the observer by
// design, so assertions settle rather than sample.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestPoolStats: Busy gauges tasks on pool workers, InlineRuns counts
// saturation spills, and both settle back after the load drains.
func TestPoolStats(t *testing.T) {
	p := NewPool(2)
	if s := p.Stats(); s.Workers != 2 || s.Busy != 0 || s.InlineRuns != 0 {
		t.Fatalf("fresh pool stats = %+v", s)
	}

	release := make(chan struct{})
	block := func() { <-release }
	// Saturate both workers. TrySubmit is a true idleness probe, so it can
	// refuse until the freshly started workers park; retry instead of
	// assuming startup order.
	for i := 0; i < 2; i++ {
		waitFor(t, "worker handoff", func() bool { return p.TrySubmit(block) })
	}
	waitFor(t, "Busy=2", func() bool { return p.Stats().Busy == 2 })

	// A Group task submitted against the saturated pool runs inline on its
	// submitter and bumps the spill counter.
	g := NewGroupCtx(context.Background(), p)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Go(func() {})
	}()
	<-done
	g.Wait()
	s := p.Stats()
	if s.InlineRuns != 1 {
		t.Fatalf("InlineRuns = %d after a saturated submit, want 1", s.InlineRuns)
	}
	if s.Busy != 2 {
		t.Fatalf("Busy = %d while both workers blocked, want 2", s.Busy)
	}

	close(release)
	waitFor(t, "Busy=0", func() bool { return p.Stats().Busy == 0 })
	if s := p.Stats(); s.InlineRuns != 1 || s.Workers != 2 {
		t.Fatalf("drained pool stats = %+v", s)
	}
}

package exec

import (
	"context"
	"slices"
	"testing"
)

// TestPoolStats: Busy gauges tasks on pool goroutines, and a hand-off to a
// saturated pool runs inline on the caller and counts in InlineRuns.
func TestPoolStats(t *testing.T) {
	p := newPool(2)
	if s := p.Stats(); s.Workers != 2 || s.Busy != 0 || s.InlineRuns != 0 {
		t.Fatalf("fresh pool stats = %+v", s)
	}
	release := hold(p, nil)
	defer release()
	if s := p.Stats(); s.Busy != 2 || s.InlineRuns != 0 {
		t.Fatalf("held pool stats = %+v, want Busy 2 and no inline run", s)
	}
	// Each spilled worker runs on this goroutine as soon as it is counted,
	// before the next hand-off is tried, and the caller's own run comes
	// last — so the runs, which need no lock, see InlineRuns 1, 2, 3, 3.
	var seen []int64
	p.runWorkers(context.Background(), 4, func() { seen = append(seen, p.Stats().InlineRuns) })
	if s := p.Stats(); !slices.Equal(seen, []int64{1, 2, 3, 3}) || s.InlineRuns != 3 || s.Busy != 2 {
		t.Fatalf("4 workers on a saturated pool: runs saw InlineRuns %v, stats %+v; want [1 2 3 3], 3 inline, Busy 2", seen, s)
	}
}

package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/ctxsel"
	"repro/internal/obs"
	"repro/internal/ppr"
)

// goroutineID is the calling goroutine's number, read off the first line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestComparisonRunsOnCallersGoroutine: every label test of CompareSets,
// FindNC, FindNCStream and FindNCBatch runs on the calling goroutine — the
// comparison stage fans nothing out to workers.
func TestComparisonRunsOnCallersGoroutine(t *testing.T) {
	g, query := leadersGraph()
	opt := Options{Selector: ctxsel.RandomWalk{}, ContextSize: 8, Seed: 3}
	ran := map[string]int{}
	testLabelHook = func() { ran[goroutineID()]++ }
	defer func() { testLabelHook = nil }()
	self := goroutineID()
	runs := map[string]func(){
		"CompareSets": func() { compareSets(t, g, query, peerContext(g), opt) },
		"FindNC":      func() { findNC(t, g, query, opt) },
		"FindNCStream": func() {
			FindNCStream(context.Background(), g, streamQueries(g, query), opt, func(i int, _ Result, err error) {
				if err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			})
		},
		"FindNCBatch": func() {
			if _, err := FindNCBatch(context.Background(), g, streamQueries(g, query), opt); err != nil {
				t.Error(err)
			}
		},
	}
	for name, run := range runs {
		clear(ran)
		run()
		if len(ran) != 1 || ran[self] < 2 {
			t.Fatalf("%s: label tests ran on goroutines %v, want only the caller's (%s)", name, ran, self)
		}
	}
}

// TestStreamStageTimersExcludeComparisons: a stream, and FindNC (a batch
// of one through the same pass), records one ctx_select and one ppr_solve
// observation, and neither counts the comparisons that run inside the
// selection's release callbacks — each stays below the time the label
// tests alone slept.
func TestStreamStageTimersExcludeComparisons(t *testing.T) {
	g, query := leadersGraph()
	const nap = 2 * time.Millisecond
	tested := 0
	testLabelHook = func() {
		tested++
		time.Sleep(nap)
	}
	defer func() { testLabelHook = nil }()
	runs := map[string]func(Options){
		"FindNCStream": func(opt Options) {
			FindNCStream(context.Background(), g, streamQueries(g, query), opt, func(i int, _ Result, err error) {
				if err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			})
		},
		"FindNC": func(opt Options) { findNC(t, g, query, opt) },
	}
	for input, run := range runs {
		solve := obs.NewHistogram(nil)
		stages := &StageObs{Select: obs.NewHistogram(nil), Compare: obs.NewHistogram(nil)}
		tested = 0
		run(Options{Selector: ctxsel.RandomWalk{Opt: ppr.Options{SolveObs: solve}}, ContextSize: 8, Seed: 3, Obs: stages})
		slept := time.Duration(tested) * nap
		if tested == 0 {
			t.Fatalf("%s: no label tested", input)
		}
		for name, h := range map[string]*obs.Histogram{"ctx_select": stages.Select, "ppr_solve": solve} {
			s := h.Snapshot()
			if s.Count != 1 {
				t.Fatalf("%s: %s: %d observations per call, want 1", input, name, s.Count)
			}
			if got := time.Duration(s.SumNanos); got >= slept {
				t.Fatalf("%s: %s: %v observed, not below the %v the label tests slept", input, name, got, slept)
			}
		}
		if got := time.Duration(stages.Compare.Snapshot().SumNanos); got < slept {
			t.Fatalf("%s: compare: %v observed, below the %v the label tests slept", input, got, slept)
		}
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/kg"
)

// selectorCall is one recorded Selector.Scores invocation.
type selectorCall struct {
	queries  [][]kg.NodeID
	streamed bool
}

// recordingSelector delegates to RandomWalk and records how it was called;
// with stall set, a streaming call releases only the first query.
type recordingSelector struct {
	calls *[]selectorCall
	stall bool
}

func (recordingSelector) Name() string { return "recording" }

func (r recordingSelector) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(int, []float64)) [][]float64 {
	*r.calls = append(*r.calls, selectorCall{queries: queries, streamed: ready != nil})
	if r.stall && ready != nil {
		ready(0, ctxsel.RandomWalk{}.Scores(ctx, g, queries[:1], nil)[0])
		return nil
	}
	return ctxsel.RandomWalk{}.Scores(ctx, g, queries, ready)
}

// TestEntryPointsMakeOneSelectorCall: each entry point reaches the
// selector exactly once, in the mode its caller can observe — FindNC a
// barriered batch of one, FindNCBatch one barriered batch, FindNCStream
// one streaming batch — so the selector, not the caller, picks the solve
// schedule.
func TestEntryPointsMakeOneSelectorCall(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	var calls []selectorCall
	opt := Options{Selector: recordingSelector{calls: &calls}, ContextSize: 8, Seed: 3}

	if _, err := FindNC(context.Background(), g, query, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := FindNCBatch(context.Background(), g, queries, opt); err != nil {
		t.Fatal(err)
	}
	FindNCStream(context.Background(), g, queries, opt, func(i int, _ Result, err error) {
		if err != nil {
			t.Errorf("stream query %d: %v", i, err)
		}
	})
	want := []selectorCall{
		{queries: [][]kg.NodeID{query}, streamed: false},
		{queries: queries, streamed: false},
		{queries: queries, streamed: true},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("selector calls = %+v, want %+v", calls, want)
	}
}

// TestFindNCStreamStalledSelector: a streaming selector that returns
// under a live ctx without releasing every query is an error on the
// withheld queries, not a hang.
func TestFindNCStreamStalledSelector(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	var calls []selectorCall
	opt := Options{Selector: recordingSelector{calls: &calls, stall: true}, ContextSize: 8, Seed: 3}
	var mu sync.Mutex
	errs := make(map[int]error)
	FindNCStream(context.Background(), g, queries, opt, func(i int, _ Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := errs[i]; dup {
			t.Errorf("query %d emitted twice", i)
		}
		errs[i] = err
	})
	if len(errs) != len(queries) {
		t.Fatalf("%d queries emitted, want %d", len(errs), len(queries))
	}
	for i, err := range errs {
		if i == 0 && err != nil {
			t.Fatalf("released query failed: %v", err)
		}
		if i != 0 && !errors.Is(err, errSelectorStalled) {
			t.Fatalf("withheld query %d: err = %v, want errSelectorStalled", i, err)
		}
	}
}

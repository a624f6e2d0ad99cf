package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/kg"
)

// findNC and compareSets are ctx-less shims for tests that predate the
// request-scoped API: background context, failure on the (impossible
// there) cancellation error.
func findNC(tb testing.TB, g *kg.Graph, query []kg.NodeID, opt Options) Result {
	tb.Helper()
	res, err := FindNC(context.Background(), g, query, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func compareSets(tb testing.TB, g *kg.Graph, query, cset []kg.NodeID, opt Options) []Characteristic {
	tb.Helper()
	out, err := CompareSets(context.Background(), g, query, cset, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestCompareSetsPreCancelled: an already-cancelled ctx returns its error
// without testing a single label.
func TestCompareSetsPreCancelled(t *testing.T) {
	g, query := leadersGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tested := 0
	testLabelHook = func() { tested++ }
	defer func() { testLabelHook = nil }()
	out, err := CompareSets(ctx, g, query, peerContext(g), Options{Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled CompareSets returned characteristics")
	}
	if tested != 0 {
		t.Fatalf("cancelled CompareSets tested %d labels", tested)
	}
}

// TestCompareSetsCancelledMidRun: cancelling during the first label test
// lets that test finish, stops before the next one, and returns ctx.Err().
func TestCompareSetsCancelledMidRun(t *testing.T) {
	g, query := leadersGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tested := 0
	testLabelHook = func() {
		if tested++; tested == 1 {
			cancel()
		}
	}
	defer func() { testLabelHook = nil }()
	_, err := CompareSets(ctx, g, query, peerContext(g), Options{Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tested != 1 {
		t.Fatalf("%d labels tested after cancellation, want 1", tested)
	}
}

// TestFindNCCancelled: a cancelled ctx surfaces from the full pipeline.
func TestFindNCCancelled(t *testing.T) {
	g, query := leadersGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FindNC(ctx, g, query, Options{Selector: ctxsel.RandomWalk{}, ContextSize: 10, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, err = FindNCBatch(ctx, g, [][]kg.NodeID{query}, Options{Selector: ctxsel.RandomWalk{}, ContextSize: 10, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
}

// streamQueries builds a small overlapping batch over the leaders graph.
func streamQueries(g *kg.Graph, query []kg.NodeID) [][]kg.NodeID {
	peers := peerContext(g)
	return [][]kg.NodeID{
		query,
		{query[0]},
		{query[0], peers[0]},
		{peers[0], peers[1]},
		query,
	}
}

// TestFindNCStreamMatchesFindNC: the stream emits every query exactly
// once, and each emitted result is bitwise identical to a solo FindNC.
func TestFindNCStreamMatchesFindNC(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	opt := Options{Selector: ctxsel.RandomWalk{}, ContextSize: 8, Seed: 3}
	got := make(map[int]Result)
	emits := 0
	FindNCStream(context.Background(), g, queries, opt, func(i int, res Result, err error) {
		emits++
		if err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
		if _, dup := got[i]; dup {
			t.Errorf("query %d emitted twice", i)
		}
		got[i] = res
	})
	if emits != len(queries) {
		t.Fatalf("%d emits for %d queries", emits, len(queries))
	}
	for i, q := range queries {
		want := findNC(t, g, q, opt)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("stream result %d differs from solo FindNC", i)
		}
	}
}

// TestFindNCStreamCancelled: cancelling mid-stream still emits every
// index exactly once — completed queries with results, abandoned ones
// with ctx.Err() — and FindNCStream returns.
func TestFindNCStreamCancelled(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	ctx, cancel := context.WithCancel(context.Background())
	seen := make(map[int]int)
	failures := 0
	FindNCStream(ctx, g, queries, Options{Selector: ctxsel.RandomWalk{}, ContextSize: 8, Seed: 3}, func(i int, res Result, err error) {
		seen[i]++
		if err != nil {
			failures++
			if !errors.Is(err, context.Canceled) {
				t.Errorf("query %d: err = %v, want context.Canceled", i, err)
			}
		} else if len(res.Characteristics) == 0 {
			t.Errorf("query %d: successful emit with no characteristics", i)
		}
		cancel() // first emit cancels the rest
	})
	if len(seen) != len(queries) {
		t.Fatalf("%d distinct indices emitted, want %d", len(seen), len(queries))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("query %d emitted %d times", i, n)
		}
	}
	if failures == 0 {
		t.Fatal("cancellation produced no abandoned queries")
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/kg"
	"repro/internal/qcache"
	"repro/internal/topk"
)

// recordingSelector delegates to RandomWalk and records the batch of every
// call; with stall set, it releases only the first query.
type recordingSelector struct {
	calls *[][][]kg.NodeID
	stall bool
}

func (recordingSelector) Name() string { return "recording" }

func (r recordingSelector) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(int, []float64)) {
	*r.calls = append(*r.calls, queries)
	if r.stall {
		queries = queries[:1]
	}
	ctxsel.RandomWalk{}.Scores(ctx, g, queries, ready)
}

// TestEntryPointsMakeOneSelectorCall: each entry point reaches the
// selector exactly once — FindNC with a batch of one, FindNCBatch and
// FindNCStream with the whole batch — so the selector, not the caller,
// picks the solve schedule.
func TestEntryPointsMakeOneSelectorCall(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	var calls [][][]kg.NodeID
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
	want := [][][]kg.NodeID{{query}, queries, queries}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("selector calls = %v, want %v", calls, want)
	}
}

// TestFindNCStreamStalledSelector: a streaming selector that returns
// under a live ctx without releasing every query is an error on the
// withheld queries, not a hang.
func TestFindNCStreamStalledSelector(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	var calls [][][]kg.NodeID
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

// TestBatchEntryPointsReportStalledSelector: FindNCBatch fails with
// errSelectorStalled, rather than compare an empty context, when the
// selector returns under a live ctx without releasing every query; FindNC,
// a batch of one the selector does release, succeeds.
func TestBatchEntryPointsReportStalledSelector(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	var calls [][][]kg.NodeID
	opt := Options{Selector: recordingSelector{calls: &calls, stall: true}, ContextSize: 8, Seed: 3}
	if _, err := FindNCBatch(context.Background(), g, queries, opt); !errors.Is(err, errSelectorStalled) {
		t.Fatalf("FindNCBatch: err = %v, want errSelectorStalled", err)
	}
	if _, err := FindNC(context.Background(), g, query, opt); err != nil {
		t.Fatalf("FindNC on a batch of one, released: %v", err)
	}
}

// reverseSelector scores a batch through RandomWalk but releases it in
// reverse query order.
type reverseSelector struct{}

func (reverseSelector) Name() string { return "reverse" }

func (reverseSelector) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(int, []float64)) {
	held := make([][]float64, len(queries))
	ctxsel.RandomWalk{}.Scores(ctx, g, queries, func(i int, scores []float64) { held[i] = scores })
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] != nil {
			ready(i, held[i])
		}
	}
}

// TestReleasesOutOfQueryOrder: a selector releasing a batch in reverse
// order, alone or behind a selector layer that already holds every other
// query (so hits are released before misses), leaves each context in its
// own query's slot — FindNCBatch's results, contexts included, and FindNC
// are bitwise what an in-order release yields.
func TestReleasesOutOfQueryOrder(t *testing.T) {
	g, query := leadersGraph()
	queries := streamQueries(g, query)
	ctx := context.Background()
	inOrder := Options{Selector: ctxsel.RandomWalk{}, ContextSize: 8, Seed: 3}
	want, err := FindNCBatch(ctx, g, queries, inOrder)
	if err != nil {
		t.Fatal(err)
	}
	reversed := inOrder
	reversed.Selector = reverseSelector{}
	cached := reversed
	cached.Cache = &Cache{Store: qcache.NewSharded(qcache.Config{Capacity: 1024}), SelectorPrefix: "rw|"}
	for i := 0; i < len(queries); i += 2 {
		Contexts(ctx, g, queries[i:i+1], cached, func(int, []topk.Item) {})
	}
	for _, opt := range []Options{reversed, cached} {
		got, err := FindNCBatch(ctx, g, queries, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if !reflect.DeepEqual(got[i].Context, want[i].Context) {
				t.Fatalf("cached=%t: FindNCBatch slot %d holds another query's context", opt.Cache != nil, i)
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cached=%t: FindNCBatch result %d differs from the in-order release", opt.Cache != nil, i)
			}
			if solo, err := FindNC(ctx, g, q, opt); err != nil || !reflect.DeepEqual(solo, want[i]) {
				t.Fatalf("cached=%t: FindNC(query %d) differs from the in-order release (err %v)", opt.Cache != nil, i, err)
			}
		}
	}
}

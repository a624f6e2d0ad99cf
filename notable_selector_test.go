package notable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/kg"
	"repro/internal/qcache"
)

// TestSelectorsModesAndCacheStatesBitwise: every selector, reached in
// every request mode (single Do, barriered DoBatch, streaming DoStream)
// and every cache state (cold, warm repeat on the same engine, cache
// disabled), returns for each query exactly the Result — context
// included — of a solo Do on a fresh cache-disabled engine.
func TestSelectorsModesAndCacheStatesBitwise(t *testing.T) {
	g := buildLeaders()
	ctx := context.Background()
	modes := []struct {
		name string
		run  func(e *Engine, qs []Query) []Result
	}{
		{"single", func(e *Engine, qs []Query) []Result {
			out := make([]Result, len(qs))
			for i, q := range qs {
				res, err := e.Do(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = res
			}
			return out
		}},
		{"barriered", func(e *Engine, qs []Query) []Result {
			out, err := e.DoBatch(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"stream", func(e *Engine, qs []Query) []Result {
			got := collectStream(t, e.DoStream(ctx, qs))
			out := make([]Result, len(qs))
			for i := range qs {
				if got[i].Err != nil {
					t.Fatalf("stream query %d: %v", i, got[i].Err)
				}
				out[i] = got[i].Result
			}
			return out
		}},
	}
	for _, sel := range []string{SelectorContextRW, SelectorRandomWalk, SelectorJaccard, SelectorSimRank} {
		opt := Options{ContextSize: 6, Selector: sel, Walks: 5000, Seed: 3, TestSamples: 500}
		off := opt
		off.CacheSize = -1
		ref := NewEngine(g, off)
		qs := asQueries(leaderQueries(t, ref, 6))
		want := modes[0].run(ref, qs)
		for i, q := range qs {
			if got := ref.Context(q.Nodes, opt.ContextSize); !reflect.DeepEqual(got, want[i].Context) {
				t.Fatalf("%s: Context(%d) differs from the Do context", sel, i)
			}
		}
		for _, mode := range modes {
			cached := NewEngine(g, opt)
			for _, state := range []struct {
				name string
				e    *Engine
			}{{"cold", cached}, {"warm", cached}, {"cache off", NewEngine(g, off)}} {
				if got := mode.run(state.e, qs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: results differ from solo uncached Do", sel, mode.name, state.name)
				}
			}
			if st := cached.CacheStats(); st.Layers[qcache.LayerSelector].Hits == 0 {
				t.Fatalf("%s %s: warm pass never hit the selector layer: %+v", sel, mode.name, st)
			}
		}
	}
}

// TestCachedSelectorCancelled drives the engine's cache wrapper around the
// RandomWalk selector (selector layer over seed layer) through a cut at
// every probe depth in every mode: a pre-cancelled call leaves both
// layers empty, no vector is released after the cut, every released
// vector is complete, and whatever the aborted calls stored is whole — a
// live call over the same cache returns the uncached bits.
func TestCachedSelectorCancelled(t *testing.T) {
	g := buildLeaders()
	opt := Options{Selector: SelectorRandomWalk, Seed: 3}
	off := opt
	off.CacheSize = -1
	ref := NewEngine(g, off)
	queries := leaderQueries(t, ref, 6)
	want := ref.selectorFor(ref.opt, "e0").Scores(context.Background(), g, queries, nil)

	modes := []struct {
		name string
		run  func(ctx context.Context, sel ctxsel.Selector, ready func(int, []float64))
	}{
		{"single", func(ctx context.Context, sel ctxsel.Selector, _ func(int, []float64)) {
			for _, q := range queries {
				sel.Scores(ctx, g, [][]NodeID{q}, nil)
			}
		}},
		{"barriered", func(ctx context.Context, sel ctxsel.Selector, _ func(int, []float64)) {
			sel.Scores(ctx, g, queries, nil)
		}},
		{"stream", func(ctx context.Context, sel ctxsel.Selector, ready func(int, []float64)) {
			sel.Scores(ctx, g, queries, ready)
		}},
	}
	for _, mode := range modes {
		selectorOf := func(e *Engine) ctxsel.Selector { return e.stateFor(e.opt, e.vg.View()).sel }
		const budget = int64(1 << 30)
		probe := newCountdownCtx(budget)
		mode.run(probe, selectorOf(NewEngine(g, opt)), func(int, []float64) {})
		total := budget - probe.left.Load()
		if total < 4 {
			t.Fatalf("%s: only %d ctx probes; cut points too coarse", mode.name, total)
		}
		scarred := NewEngine(g, opt)
		for k := int64(0); k < total; k += 1 + total/16 {
			for _, e := range []*Engine{NewEngine(g, opt), scarred} {
				ctx := newCountdownCtx(k)
				mode.run(ctx, selectorOf(e), func(i int, scores []float64) {
					if ctx.left.Load() < 0 {
						t.Fatalf("%s cut %d: query %d released after the cut", mode.name, k, i)
					}
					if !reflect.DeepEqual(scores, want[i]) {
						t.Fatalf("%s cut %d: released vector %d is not the complete one", mode.name, k, i)
					}
				})
				if st := e.CacheStats(); k == 0 && e != scarred && st.Size != 0 {
					t.Fatalf("%s: pre-cancelled call stored %d entries: %+v", mode.name, st.Size, st)
				}
			}
		}
		got := selectorOf(scarred).Scores(context.Background(), g, queries, nil)
		for i := range queries {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: vector %d after cancelled calls differs — a partial entry was stored", mode.name, i)
			}
		}
	}
}

// releaseAllSelector is a streaming selector that releases one vector per
// query without ever probing ctx, leaving the cut to its wrapper.
type releaseAllSelector struct{}

func (releaseAllSelector) Name() string { return "release-all" }

func (releaseAllSelector) Scores(_ context.Context, g *kg.Graph, queries [][]NodeID, ready func(int, []float64)) [][]float64 {
	for i := range queries {
		ready(i, make([]float64, g.NumNodes()))
	}
	return nil
}

// TestCachedSelectorWithholdsReleaseAfterCut: the cache wrapper's own ctx
// probe sees the cut before the second release, so that vector is neither
// stored nor handed to the caller.
func TestCachedSelectorWithholdsReleaseAfterCut(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	sel := e.cachedSelectorFor(releaseAllSelector{}, e.opt, "e0")
	ctx := newCountdownCtx(1)
	var released []int
	sel.Scores(ctx, g, leaderQueries(t, e, 2), func(i int, _ []float64) {
		if ctx.left.Load() < 0 {
			t.Fatalf("query %d released after the cut", i)
		}
		released = append(released, i)
	})
	if !reflect.DeepEqual(released, []int{0}) {
		t.Fatalf("released %v, want only query 0", released)
	}
	if n := e.CacheStats().Size; n != 1 {
		t.Fatalf("cache holds %d entries, want query 0's vector alone", n)
	}
}

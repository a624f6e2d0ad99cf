package notable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctxsel"
	"repro/internal/kg"
	"repro/internal/qcache"
)

// TestSelectorsModesAndCacheStatesBitwise: every selector, reached in
// every request mode (single Do, barriered DoBatch, streaming DoStream)
// and every cache state (cold, warm repeat on the same engine, warm at a
// smaller and at a larger context size than the one that filled the
// cache, Alpha and Policy overrides over the same store — each first cold
// in the test layer, then warm — and cache
// disabled), returns for each query exactly the Result —
// context included — of a solo Do on a fresh cache-disabled engine. Every
// leaders query has fewer non-zero candidates than the selector layer's
// cut, so its entries are complete and serve the larger size too.
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
		nodes := leaderQueries(t, ref, 6)
		// Requests and solo uncached answers at the filling size and at a
		// smaller and a larger one.
		sized := func(k int) []Query {
			qs := asQueries(nodes)
			for i := range qs {
				qs[i].ContextSize = k
			}
			return qs
		}
		qs, small, large := sized(opt.ContextSize), sized(3), sized(12)
		want, wantSmall, wantLarge := modes[0].run(ref, qs), modes[0].run(ref, small), modes[0].run(ref, large)
		for i, q := range qs {
			if got := ref.Context(q.Nodes, opt.ContextSize); !reflect.DeepEqual(got, want[i].Context) {
				t.Fatalf("%s: Context(%d) differs from the Do context", sel, i)
			}
		}
		// Test-option overrides, each of which changes the report and so
		// must key a test-layer entry of its own.
		overridden := func(set func(*Query)) []Query {
			out := asQueries(nodes)
			for i := range out {
				set(&out[i])
			}
			return out
		}
		alpha := overridden(func(q *Query) { q.Alpha = 0.001 })
		pooled := overridden(func(q *Query) { q.Policy = PolicyPooled })
		wantAlpha, wantPooled := modes[0].run(ref, alpha), modes[0].run(ref, pooled)
		for name, w := range map[string][]Result{"alpha": wantAlpha, "pooled": wantPooled} {
			if reflect.DeepEqual(w, want) {
				t.Fatalf("%s: the %s variant reports what the base does; the fixture cannot tell them apart", sel, name)
			}
		}
		for _, mode := range modes {
			cached := NewEngine(g, opt)
			var filled qcache.LayerStats
			var tests uint64
			for _, state := range []struct {
				name string
				e    *Engine
				qs   []Query
				want []Result
				warm bool // every report is already in the test layer
			}{
				{"cold", cached, qs, want, false},
				{"warm", cached, qs, want, true},
				{"warm smaller", cached, small, wantSmall, false},
				{"warm larger", cached, large, wantLarge, false},
				{"alpha", cached, alpha, wantAlpha, false},
				{"warm alpha", cached, alpha, wantAlpha, true},
				{"pooled", cached, pooled, wantPooled, false},
				{"warm pooled", cached, pooled, wantPooled, true},
				{"warm again", cached, qs, want, true},
				{"cache off", NewEngine(g, off), qs, want, false},
			} {
				if got := mode.run(state.e, state.qs); !reflect.DeepEqual(got, state.want) {
					t.Fatalf("%s %s %s: results differ from solo uncached Do", sel, mode.name, state.name)
				}
				layers := cached.CacheStats().Layers
				st := layers[qcache.LayerSelector]
				if state.name == "cold" {
					filled = st
				} else if st.Misses != filled.Misses {
					t.Fatalf("%s %s %s: the selector layer missed after the cold pass: %+v -> %+v",
						sel, mode.name, state.name, filled, st)
				}
				if misses := layers[qcache.LayerTest].Misses; state.warm && misses != tests {
					t.Fatalf("%s %s %s: the test layer missed %d times on a warm pass", sel, mode.name, state.name, misses-tests)
				} else {
					tests = misses
				}
			}
			if st := cached.CacheStats(); st.Layers[qcache.LayerSelector].Hits == 0 {
				t.Fatalf("%s %s: warm pass never hit the selector layer: %+v", sel, mode.name, st)
			}
		}
	}
}

// selectorLayer returns the core options e's requests run under, with sel
// in place of the configured selector: e's selector layer, keyed as the
// engine keys it, in front of sel.
func selectorLayer(e *Engine, sel ctxsel.Selector) core.Options {
	copt := e.coreOptionsFor(e.opt, e.vg.View())
	copt.Selector = sel
	return copt
}

// TestCachedSelectorCancelled drives the selector layer (core.Contexts
// under the engine's cache) in front of the RandomWalk selector — so over
// the seed layer too — through a cut at every probe depth in every mode: a
// pre-cancelled call leaves every layer empty, no context is released
// after the cut, every released context is complete, and whatever the
// aborted calls stored is whole — a live call over the same cache returns
// the uncached bits.
func TestCachedSelectorCancelled(t *testing.T) {
	g := buildLeaders()
	opt := Options{Selector: SelectorRandomWalk, Seed: 3}
	off := opt
	off.CacheSize = -1
	ref := NewEngine(g, off)
	queries := leaderQueries(t, ref, 6)
	want := core.Contexts(context.Background(), g, queries, ref.coreOptionsFor(ref.opt, ref.vg.View()), nil)

	modes := []struct {
		name string
		run  func(ctx context.Context, copt core.Options, ready func(int, []ContextItem))
	}{
		{"single", func(ctx context.Context, copt core.Options, _ func(int, []ContextItem)) {
			for _, q := range queries {
				core.Contexts(ctx, g, [][]NodeID{q}, copt, nil)
			}
		}},
		{"barriered", func(ctx context.Context, copt core.Options, _ func(int, []ContextItem)) {
			core.Contexts(ctx, g, queries, copt, nil)
		}},
		{"stream", func(ctx context.Context, copt core.Options, ready func(int, []ContextItem)) {
			core.Contexts(ctx, g, queries, copt, ready)
		}},
	}
	for _, mode := range modes {
		optionsOf := func(e *Engine) core.Options { return e.coreOptionsFor(e.opt, e.vg.View()) }
		const budget = int64(1 << 30)
		probe := newCountdownCtx(budget)
		mode.run(probe, optionsOf(NewEngine(g, opt)), func(int, []ContextItem) {})
		total := budget - probe.left.Load()
		if total < 4 {
			t.Fatalf("%s: only %d ctx probes; cut points too coarse", mode.name, total)
		}
		scarred := NewEngine(g, opt)
		for k := int64(0); k < total; k += 1 + total/16 {
			for _, e := range []*Engine{NewEngine(g, opt), scarred} {
				ctx := newCountdownCtx(k)
				mode.run(ctx, optionsOf(e), func(i int, items []ContextItem) {
					if ctx.left.Load() < 0 {
						t.Fatalf("%s cut %d: query %d released after the cut", mode.name, k, i)
					}
					if !reflect.DeepEqual(items, want[i]) {
						t.Fatalf("%s cut %d: released context %d is not the complete one", mode.name, k, i)
					}
				})
				if st := e.CacheStats(); k == 0 && e != scarred && st.Size != 0 {
					t.Fatalf("%s: pre-cancelled call stored %d entries: %+v", mode.name, st.Size, st)
				}
			}
		}
		got := core.Contexts(context.Background(), g, queries, optionsOf(scarred), nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: contexts after cancelled calls differ — a partial entry was stored", mode.name)
		}
	}
}

// releaseAllSelector is a streaming selector that releases one vector per
// query without ever probing ctx, leaving the cut to its caller.
type releaseAllSelector struct{}

func (releaseAllSelector) Name() string { return "release-all" }

func (releaseAllSelector) Scores(_ context.Context, g *kg.Graph, queries [][]NodeID, ready func(int, []float64)) [][]float64 {
	for i := range queries {
		ready(i, make([]float64, g.NumNodes()))
	}
	return nil
}

// TestCachedSelectorWithholdsReleaseAfterCut: the selector layer's own
// ctx probe sees the cut before the second release, so that context is
// neither stored nor handed to the caller.
func TestCachedSelectorWithholdsReleaseAfterCut(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	copt := selectorLayer(e, releaseAllSelector{})
	ctx := newCountdownCtx(1)
	var released []int
	core.Contexts(ctx, g, leaderQueries(t, e, 2), copt, func(i int, _ []ContextItem) {
		if ctx.left.Load() < 0 {
			t.Fatalf("query %d released after the cut", i)
		}
		released = append(released, i)
	})
	if !reflect.DeepEqual(released, []int{0}) {
		t.Fatalf("released %v, want only query 0", released)
	}
	if n := e.CacheStats().Size; n != 1 {
		t.Fatalf("cache holds %d entries, want query 0's context alone", n)
	}
}

package notable

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/qcache"
)

// countingSelector counts how many query vectors its scoring pass actually
// computes — the observable for "a warm cache does zero mining and
// walking".
type countingSelector struct {
	scored *int
}

func (c countingSelector) Name() string { return "counting" }

func (c countingSelector) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(int, []float64)) {
	for i := range queries {
		*c.scored++
		scores := make([]float64, g.NumNodes())
		for id := range scores {
			scores[id] = float64(id + 1)
		}
		ready(i, scores)
	}
}

// selectOne resolves one query's context through core.Contexts at
// size k.
func selectOne(copt core.Options, g *Graph, query []NodeID, k int) []ContextItem {
	copt.ContextSize = k
	return contextsOf(context.Background(), g, [][]NodeID{query}, copt)[0]
}

func TestCachedSelectorRunsScoringOnce(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	copt := selectorLayer(e, countingSelector{&scored})
	ctx := context.Background()
	a := selectOne(copt, g, query, 5)
	b := selectOne(copt, g, query, 5)
	if scored != 1 {
		t.Fatalf("scoring ran %d times across two selects, want 1", scored)
	}
	// A permuted query is its own entry (its score bits may differ), and
	// its repeat hits that entry.
	perm := []NodeID{query[1], query[0]}
	c := selectOne(copt, g, perm, 5)
	if selectOne(copt, g, perm, 5); scored != 2 {
		t.Fatalf("scoring ran %d times after a permuted query and its repeat, want 2", scored)
	}
	if len(a) != 5 || len(b) != 5 || len(c) != 5 {
		t.Fatalf("select sizes: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached select differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different k reuses the cached context too.
	if d := selectOne(copt, g, query, 3); len(d) != 3 || scored != 2 {
		t.Fatalf("k=3 select: len %d, scoring ran %d times", len(d), scored)
	}
	// So does a batch: one holding the warm query plus one new query scores
	// only the new one, whether collected or streamed.
	other := []NodeID{query[0]}
	if got := contextsOf(ctx, g, [][]NodeID{query, other}, copt); len(got) != 2 || scored != 3 {
		t.Fatalf("collected batch: %d contexts, scoring ran %d times, want 2 and 3", len(got), scored)
	}
	released := 0
	core.Contexts(ctx, g, [][]NodeID{other, query, {query[1]}}, copt, func(int, []ContextItem) { released++ })
	if released != 3 || scored != 4 {
		t.Fatalf("stream: %d released, scoring ran %d times, want 3 and 4", released, scored)
	}
	if st := e.CacheStats(); st.Hits < 6 || st.Misses != 4 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestCachedSelectorKeysDuplicateQueriesExactly: a query listing a node
// twice caches under its own exact key — its repeat hits, and the
// deduplicated query is a different entry.
func TestCachedSelectorKeysDuplicateQueriesExactly(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	dup := []NodeID{query[0], query[0], query[1]}
	scored := 0
	copt := selectorLayer(e, countingSelector{&scored})
	a := selectOne(copt, g, dup, 5)
	b := selectOne(copt, g, dup, 5)
	if st := e.CacheStats(); scored != 1 || st.Size != 1 || !reflect.DeepEqual(a, b) {
		t.Fatalf("duplicate-node query: scored %d times, %d entries stored, repeat equal %v; want 1, 1, true",
			scored, st.Size, reflect.DeepEqual(a, b))
	}
	if selectOne(copt, g, query, 5); scored != 2 {
		t.Fatalf("deduplicated query shared the duplicate's entry: scored %d times, want 2", scored)
	}
}

// TestCachedSelectorServesPermutedRepeatExactly: a selector's score bits
// depend on the order of the query list (RandomWalk folds its seeds in
// list order, ContextRW accumulates path shares in query order), so a
// node set warmed in one order and then asked in another must get exactly
// what a cache-disabled engine computes for the order asked — for both
// paper selectors, on G_small.
func TestCachedSelectorServesPermutedRepeatExactly(t *testing.T) {
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph
	for _, sel := range []string{SelectorRandomWalk, SelectorContextRW} {
		opt := Options{Selector: sel, Seed: 1, Walks: 20000}
		e := NewEngine(g, opt)
		opt.CacheSize = -1
		ref := NewEngine(g, opt)
		actors, err := e.Resolve(gen.Table1["actors"]...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+2 < len(actors); i += 3 {
			a, b, c := actors[i], actors[i+1], actors[i+2]
			e.Context([]NodeID{c, a, b}, 100)
			q := []NodeID{a, b, c}
			if got, want := e.Context(q, 100), ref.Context(q, 100); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v after warming %v differs from the uncached context", sel, q, []NodeID{c, a, b})
			}
		}
	}
}

func TestEngineSearchCachedMatchesUncached(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 8, Walks: 20000, Seed: 3}
	cached := NewEngine(g, opt)
	optOff := opt
	optOff.CacheSize = -1
	uncached := NewEngine(g, optOff)

	warm, err := doNames(cached, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := doNames(cached, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := doNames(uncached, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{"warm-hit": hit, "cache-off": cold} {
		if len(res.Context) != len(warm.Context) {
			t.Fatalf("%s context size %d vs %d", name, len(res.Context), len(warm.Context))
		}
		for i := range warm.Context {
			if res.Context[i] != warm.Context[i] {
				t.Fatalf("%s context differs at %d", name, i)
			}
		}
		if len(res.Characteristics) != len(warm.Characteristics) {
			t.Fatalf("%s characteristic count differs", name)
		}
		for i := range warm.Characteristics {
			a, b := warm.Characteristics[i], res.Characteristics[i]
			if a.Name != b.Name || a.Score != b.Score || a.InstP != b.InstP || a.CardP != b.CardP {
				t.Fatalf("%s characteristic %d differs: %+v vs %+v", name, i, a, b)
			}
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected one miss then hits, got %+v", st)
	}
	if off := uncached.CacheStats(); off != (qcache.Stats{}) {
		t.Fatalf("disabled cache reports %+v", off)
	}
}

func TestEngineContextSharesCacheWithSearch(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 8, Walks: 20000, Seed: 3})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Query{Nodes: query}); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	ctx := e.Context(query, 4)
	if len(ctx) == 0 {
		t.Fatal("empty context")
	}
	after := e.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("Context did not hit the Do-warmed cache: %+v -> %+v", before, after)
	}
}

// TestWarmHitContextIsPrivate: a warm hit hands out its own copy of the
// cached context, so a caller mutating it cannot change the next hit.
func TestWarmHitContextIsPrivate(t *testing.T) {
	e := NewEngine(buildLeaders(), Options{ContextSize: 8, Walks: 20000, Seed: 3})
	names := []string{"Angela Merkel", "Barack Obama"}
	cold, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Context) == 0 {
		t.Fatal("empty context")
	}
	for i := range warm.Context {
		warm.Context[i] = ContextItem{ID: 1 << 30, Score: -1}
	}
	again, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Context, cold.Context) {
		t.Fatalf("a caller's mutation reached the cache: %v, want %v", again.Context, cold.Context)
	}
}

// TestSelectorLayerHoldsRankedPrefix: on G_small, where every RandomWalk
// vector is dense, a selector entry is the ranked context cut at
// max(k, 100) — 16 bytes per item, not 8 per graph node — and serves every
// k up to its cut; a larger k solves again, replaces the entry, and from
// then on hits. Every answer equals a cache-disabled engine's.
func TestSelectorLayerHoldsRankedPrefix(t *testing.T) {
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph
	opt := Options{Selector: SelectorRandomWalk, Seed: 1}
	e := NewEngine(g, opt)
	opt.CacheSize = -1
	ref := NewEngine(g, opt)
	actors, err := e.Resolve(gen.Table1["actors"]...)
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]NodeID
	for i := range actors {
		queries = append(queries, []NodeID{actors[i], actors[(i+1)%len(actors)]})
	}
	for _, q := range queries {
		if got := e.Context(q, 100); len(got) != 100 || !reflect.DeepEqual(got, ref.Context(q, 100)) {
			t.Fatalf("cold context of %v differs from the uncached one", q)
		}
	}
	// Per entry: 100 items, the key (prefix plus two IDs) and a fixed
	// overhead — where a score vector alone would be 8·NumNodes bytes.
	const keyMax, overhead = 64, 128
	sel := e.CacheStats().Layers[qcache.LayerSelector]
	if limit := int64(len(queries)) * (16*100 + keyMax + overhead); sel.Bytes == 0 || sel.Bytes > limit {
		t.Fatalf("selector layer holds %d bytes for %d queries, want (0, %d]; a vector is %d bytes",
			sel.Bytes, len(queries), limit, 8*g.NumNodes())
	}

	q := queries[0]
	for _, step := range []struct {
		k    int
		miss bool
	}{{10, false}, {100, false}, {150, true}, {120, false}, {150, false}} {
		before := e.CacheStats().Layers[qcache.LayerSelector]
		got := e.Context(q, step.k)
		after := e.CacheStats().Layers[qcache.LayerSelector]
		if !reflect.DeepEqual(got, ref.Context(q, step.k)) {
			t.Fatalf("k=%d: context differs from the uncached one", step.k)
		}
		if missed := after.Misses > before.Misses || after.Bytes != before.Bytes; missed != step.miss {
			t.Fatalf("k=%d: solved again = %v, want %v (%+v -> %+v)", step.k, missed, step.miss, before, after)
		}
	}
}

// TestEngineWarmSearchSkipsTestingStage: a warm repeated Do serves the
// selector AND the whole comparison report from the cache — exactly one
// selector-layer hit and one test-layer hit, and zero new misses.
func TestEngineWarmSearchSkipsTestingStage(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 8, Walks: 20000, Seed: 3})
	names := []string{"Angela Merkel", "Barack Obama"}
	cold, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Characteristics) < 2 {
		t.Fatalf("cold search tested %d labels, want several", len(cold.Characteristics))
	}
	st := e.CacheStats()
	sel, test := st.Layers[qcache.LayerSelector], st.Layers[qcache.LayerTest]
	if st.Misses != 2 || st.Hits != 0 || sel.Misses != 1 || test.Misses != 1 {
		t.Fatalf("cold search stats %+v, want one selector and one test miss, 0 hits", st)
	}
	warm, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Misses != st.Misses {
		t.Fatalf("warm search recomputed something: %+v -> %+v", st, st2)
	}
	if sel, test := st2.Layers[qcache.LayerSelector], st2.Layers[qcache.LayerTest]; st2.Hits != 2 || sel.Hits != 1 || test.Hits != 1 {
		t.Fatalf("warm search stats %+v, want one selector and one test hit", st2)
	}
	for i := range cold.Characteristics {
		a, b := cold.Characteristics[i], warm.Characteristics[i]
		if a.Name != b.Name || a.Score != b.Score || a.InstP != b.InstP || a.CardP != b.CardP {
			t.Fatalf("warm result differs at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestWarmEntryCancelledCtx: a request whose ctx is already done fails with
// ctx.Err() even when every layer it needs is warm — from Do, with or
// without Degrade.
func TestWarmEntryCancelledCtx(t *testing.T) {
	e := NewEngine(buildLeaders(), Options{ContextSize: 8, Walks: 20000, Seed: 3})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Query{Nodes: query}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Query{{Nodes: query}, {Nodes: query, Degrade: true}} {
		if got, err := e.Do(ctx, q); !errors.Is(err, context.Canceled) || got.Characteristics != nil {
			t.Fatalf("Do (Degrade %v) on a warm entry with a done ctx: %d records, err %v; want context.Canceled",
				q.Degrade, len(got.Characteristics), err)
		}
	}
}

// BenchmarkEngineWarmSearch measures repeated Resolve + Engine.Do on the
// half-scale YAGO-like graph: the warm path (default cache) skips mining,
// walking, distribution building, and testing entirely; the cold path
// (cache disabled) repeats all of them every query. big is the warm
// RandomWalk hit on a YAGO-like graph with 24× the ambient population
// (≈140k nodes, the benchmark's G_big), where a hit copies its cached
// context instead of re-ranking a 140k-float vector.
func BenchmarkEngineWarmSearch(b *testing.B) {
	names := gen.Table1["actors"][:5]
	run := func(b *testing.B, g *Graph, opt Options) {
		b.ReportAllocs()
		opt.ContextSize, opt.Walks, opt.Seed = 100, 60000, 42
		engine := NewEngine(g, opt)
		if _, err := doNames(engine, names...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := doNames(engine, names...); err != nil {
				b.Fatal(err)
			}
		}
	}
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5}).Graph
	b.Run("warm", func(b *testing.B) { run(b, g, Options{}) })
	b.Run("cold", func(b *testing.B) { run(b, g, Options{CacheSize: -1}) })
	b.Run("big", func(b *testing.B) {
		big := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 1, AmbientScale: 24}).Graph
		if big.NumNodes() < 100_000 {
			b.Fatalf("big graph has %d nodes, want at least 100k", big.NumNodes())
		}
		run(b, big, Options{Selector: SelectorRandomWalk})
	})
}

// TestSeedMappedBytesOwnership: a RandomWalk engine's cached seed vectors
// are mapped outside the Go heap and show on nc_ppr_seed_mapped_bytes, and
// the cache hands every byte back the moment it drops them: at an epoch
// publish, and at Close.
func TestSeedMappedBytesOwnership(t *testing.T) {
	settleFinalizers()
	e := NewEngine(buildLeaders(), Options{Selector: SelectorRandomWalk, ContextSize: 6})
	base := gaugeValue(t, e, "nc_ppr_seed_mapped_bytes")
	n := float64(e.Graph().NumNodes())
	search := func(names ...string) {
		t.Helper()
		if _, err := doNames(e, names...); err != nil {
			t.Fatal(err)
		}
	}
	search("Angela Merkel", "Barack Obama")
	search("Angela Merkel", "Barack Obama", "Xi Jinping")
	if got := gaugeValue(t, e, "nc_ppr_seed_mapped_bytes") - base; got != 3*8*n {
		t.Fatalf("three cached seed vectors map %v bytes, want %v", got, 3*8*n)
	}
	if _, err := e.ApplyTriples(context.Background(), []Triple{{S: "Angela Merkel", P: "awarded", O: "Nobel Prize"}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, e, "nc_ppr_seed_mapped_bytes"); got != base {
		t.Fatalf("after an epoch publish %v bytes mapped, want %v", got, base)
	}
	search("Angela Merkel", "Barack Obama")
	if got := gaugeValue(t, e, "nc_ppr_seed_mapped_bytes"); got <= base {
		t.Fatalf("after a search at the new epoch %v bytes mapped, want > %v", got, base)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, e, "nc_ppr_seed_mapped_bytes"); got != base {
		t.Fatalf("after Close %v bytes mapped, want %v", got, base)
	}
}

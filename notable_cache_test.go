package notable

import (
	"context"
	"testing"

	"repro/internal/ctxsel"
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

func (c countingSelector) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(int, []float64)) [][]float64 {
	out := make([][]float64, len(queries))
	for i := range queries {
		*c.scored++
		out[i] = make([]float64, g.NumNodes())
		for id := range out[i] {
			out[i][id] = float64(id + 1)
		}
		if ready != nil {
			ready(i, out[i])
		}
	}
	if ready != nil {
		return nil
	}
	return out
}

func TestCachedSelectorRunsScoringOnce(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	cs := e.cachedSelectorFor(countingSelector{&scored}, e.opt, "e0")
	ctx := context.Background()
	a := ctxsel.Select(ctx, cs, g, query, 5)
	b := ctxsel.Select(ctx, cs, g, query, 5)
	// Permuted queries canonicalize to the same entry.
	c := ctxsel.Select(ctx, cs, g, []NodeID{query[1], query[0]}, 5)
	if scored != 1 {
		t.Fatalf("scoring ran %d times across three selects, want 1", scored)
	}
	if len(a) != 5 || len(b) != 5 || len(c) != 5 {
		t.Fatalf("select sizes: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached select differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different k reuses the cached score vector too.
	if d := ctxsel.Select(ctx, cs, g, query, 3); len(d) != 3 || scored != 1 {
		t.Fatalf("k=3 select: len %d, scoring ran %d times", len(d), scored)
	}
	// So does every batch mode: a barriered batch and a stream holding the
	// warm query plus one new query score only the new one.
	other := []NodeID{query[0]}
	if got := cs.Scores(ctx, g, [][]NodeID{query, other}, nil); len(got) != 2 || scored != 2 {
		t.Fatalf("barriered batch: %d vectors, scoring ran %d times, want 2 and 2", len(got), scored)
	}
	released := 0
	cs.Scores(ctx, g, [][]NodeID{other, query, {query[1]}}, func(int, []float64) { released++ })
	if released != 3 || scored != 3 {
		t.Fatalf("stream: %d released, scoring ran %d times, want 3 and 3", released, scored)
	}
	if st := e.CacheStats(); st.Hits < 6 || st.Misses != 3 {
		t.Fatalf("cache stats = %+v", st)
	}
}

func TestCachedSelectorBypassesDuplicateQueries(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	dup := []NodeID{query[0], query[0], query[1]}
	scored := 0
	cs := e.cachedSelectorFor(countingSelector{&scored}, e.opt, "e0")
	ctxsel.Select(context.Background(), cs, g, dup, 5)
	ctxsel.Select(context.Background(), cs, g, dup, 5)
	if st := e.CacheStats(); scored != 2 || st.Size != 0 {
		t.Fatalf("duplicate-node query must bypass the cache: scored %d times, %d entries stored",
			scored, st.Size)
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

// TestEngineWarmSearchSkipsTestingStage: a warm repeated Do serves
// the selector AND every label test from the cache — exactly one hit per
// tested label plus one for the score vector, and zero new misses.
func TestEngineWarmSearchSkipsTestingStage(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 8, Walks: 20000, Seed: 3})
	names := []string{"Angela Merkel", "Barack Obama"}
	cold, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	labels := uint64(len(cold.Characteristics))
	if st.Misses != labels+1 || st.Hits != 0 {
		t.Fatalf("cold search stats %+v, want %d misses (selector + labels), 0 hits",
			st, labels+1)
	}
	warm, err := doNames(e, names...)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Misses != st.Misses {
		t.Fatalf("warm search recomputed something: %+v -> %+v", st, st2)
	}
	if st2.Hits != labels+1 {
		t.Fatalf("warm search hits = %d, want %d (selector + every label)",
			st2.Hits, labels+1)
	}
	for i := range cold.Characteristics {
		a, b := cold.Characteristics[i], warm.Characteristics[i]
		if a.Name != b.Name || a.Score != b.Score || a.InstP != b.InstP || a.CardP != b.CardP {
			t.Fatalf("warm result differs at %d: %+v vs %+v", i, a, b)
		}
	}
	// DoCompare shares the memo: an explicit-context run against the same
	// ranked context is fully warm too.
	before := e.CacheStats()
	query, err := e.Resolve(names...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DoCompare(context.Background(), query, cold.ContextIDs(), Query{}); err != nil {
		t.Fatal(err)
	}
	after := e.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("DoCompare against the searched context missed: %+v -> %+v", before, after)
	}
}

// BenchmarkEngineWarmSearch measures repeated Resolve + Engine.Do on the
// half-scale YAGO-like graph: the warm path (default cache) skips mining,
// walking, distribution building, and testing entirely; the cold path
// (cache disabled) repeats all of them every query.
func BenchmarkEngineWarmSearch(b *testing.B) {
	ds := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5})
	names := gen.Table1["actors"][:5]
	run := func(b *testing.B, cacheSize int) {
		engine := NewEngine(ds.Graph, Options{
			ContextSize: 100,
			Walks:       60000,
			Seed:        42,
			CacheSize:   cacheSize,
		})
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
	b.Run("warm", func(b *testing.B) { run(b, 0) })
	b.Run("cold", func(b *testing.B) { run(b, -1) })
}

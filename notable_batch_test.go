package notable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/qcache"
)

// leaderQueries builds n deterministic, heavily overlapping queries over
// the leaders graph — sizes 1..4, including one query with a duplicated
// node (the uncacheable selector case).
func leaderQueries(t testing.TB, e *Engine, n int) [][]NodeID {
	t.Helper()
	names := []string{"Angela Merkel", "Barack Obama", "Vladimir Putin",
		"Matteo Renzi", "François Hollande", "David Cameron", "Xi Jinping",
		"Justin Trudeau", "Shinzo Abe", "Dilma Rousseff"}
	ids, err := e.Resolve(names...)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]NodeID, n)
	for i := range queries {
		size := 1 + i%4
		q := make([]NodeID, size)
		for j := range q {
			q[j] = ids[(i+j*j)%len(ids)]
		}
		if i == 2 && size >= 2 {
			q[1] = q[0] // duplicated node: bypasses the selector cache
		}
		queries[i] = q
	}
	return queries
}

// searchSequential runs one Do per query on e.
func searchSequential(t testing.TB, e *Engine, queries [][]NodeID) []Result {
	t.Helper()
	out := make([]Result, len(queries))
	for i, q := range queries {
		r, err := e.Do(context.Background(), Query{Nodes: q})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestSearchBatchMatchesSequentialBitwise is the batch pipeline's
// acceptance invariant: for every batch size, DoBatch
// on a fresh engine returns exactly — bitwise, via DeepEqual on the full
// Result records — what per-query Do calls on an equally fresh engine
// return. Covers the score-caching selector path (RandomWalk, whose batch
// solve is the multi-source kernel), with and without the cache.
func TestSearchBatchMatchesSequentialBitwise(t *testing.T) {
	g := buildLeaders()
	base := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	for _, batchSize := range []int{1, 3, 16} {
		opt := base
		seqEng := NewEngine(g, opt)
		queries := leaderQueries(t, seqEng, batchSize)
		want := searchSequential(t, seqEng, queries)

		batchEng := NewEngine(g, opt)
		got, err := batchEng.DoBatch(context.Background(), asQueries(queries))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: batched results differ from sequential", batchSize)
		}

		// Cacheless engines must agree too — the batch path's solver
		// dedup does not depend on the cache.
		opt.CacheSize = -1
		coldEng := NewEngine(g, opt)
		cold, err := coldEng.DoBatch(context.Background(), asQueries(queries))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, want) {
			t.Fatalf("batch=%d: cacheless batch differs", batchSize)
		}
	}
}

// TestSearchBatchDefaultSelector: the default ContextRW selector has no
// batched solve — SelectBatch falls back per query — and must still match
// sequential exactly.
func TestSearchBatchDefaultSelector(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Walks: 20000, Seed: 3, TestSamples: 500}
	seqEng := NewEngine(g, opt)
	queries := leaderQueries(t, seqEng, 5)
	want := searchSequential(t, seqEng, queries)
	batchEng := NewEngine(g, opt)
	got, err := batchEng.DoBatch(context.Background(), asQueries(queries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ContextRW batch differs from sequential")
	}
}

// TestSearchBatchWarmEngine: a batch against a fully warm engine is pure
// cache hits — no selector misses — and identical output.
func TestSearchBatchWarmEngine(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 6)
	want := searchSequential(t, e, queries)
	missesBefore := e.CacheStats().Misses
	got, err := e.DoBatch(context.Background(), asQueries(queries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm batch differs from sequential")
	}
	if st := e.CacheStats(); st.Misses != missesBefore {
		// The duplicate-node query bypasses the cache and recomputes; it
		// must not register as a miss either.
		t.Fatalf("warm batch missed the cache: %+v", st)
	}
}

// TestSearchBatchEmptyQuery: empty queries are rejected up front, naming
// the offending index.
func TestSearchBatchEmptyQuery(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	if _, err := e.DoBatch(context.Background(), []Query{{Nodes: []NodeID{1}}, {}}); err == nil {
		t.Fatal("empty query in batch should error")
	}
	if res, err := e.DoBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

// TestEngineCacheByteBudget: the engine's cache carries the two fixed
// layer bounds, CacheStats reports per-layer residency, and a seed-layer
// bound below the working set evicts under byte pressure without
// changing any result.
func TestEngineCacheByteBudget(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	unbounded := NewEngine(g, opt)
	queries := leaderQueries(t, unbounded, 6)
	searchSequential(t, unbounded, queries)
	full := unbounded.CacheStats()
	wantBudget := [qcache.NumLayers]int64{qcache.LayerSeed: SeedLayerBytes}
	for l, ls := range full.Layers {
		if ls.ByteBudget != wantBudget[l] {
			t.Fatalf("%s layer budget = %d, want %d", qcache.Layer(l), ls.ByteBudget, wantBudget[l])
		}
	}
	if full.Layers[qcache.LayerSelector].Bytes == 0 || full.Layers[qcache.LayerTest].Bytes == 0 || full.Layers[qcache.LayerSeed].Bytes == 0 {
		t.Fatalf("expected the selector, test, and seed layers to report bytes: %+v", full)
	}
	var sum int64
	for _, l := range full.Layers {
		sum += l.Bytes
	}
	if full.Bytes != sum {
		t.Fatalf("Bytes must total the layers: %+v", full)
	}

	budget := full.Layers[qcache.LayerSeed].Bytes / 4
	bounded := withSeedLayerBytes(NewEngine(g, opt), budget)
	searchSequential(t, bounded, queries)
	st := bounded.CacheStats()
	if st.Layers[qcache.LayerSeed].ByteBudget != budget {
		t.Fatalf("seed layer budget = %d, want %d", st.Layers[qcache.LayerSeed].ByteBudget, budget)
	}
	// One shard, and every leaders seed vector is far below a quarter of
	// the working set, so the bound holds exactly.
	if st.Layers[qcache.LayerSeed].Bytes > budget {
		t.Fatalf("resident seed bytes %d exceed the bound %d", st.Layers[qcache.LayerSeed].Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("a seed bound at a quarter of the working set must evict")
	}
	// And the bound must not change any result.
	want := searchSequential(t, unbounded, queries)
	got := searchSequential(t, bounded, queries)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("byte-bounded engine returned different results")
	}
}

// BenchmarkSearchBatch is the batched cold path's acceptance benchmark:
// one DoBatch over 8 distinct overlapping queries against 8
// sequential cold Do calls with identical options. The mix is a
// profile sweep over the actors cohort — every size-5 subset, the full
// set, and one truncation — the batch-entity-profiling / eval-sweep
// workload the batch path exists for, where queries share most of their
// seeds. Caches are disabled on both sides so every query is genuinely
// cold; the batch side's advantage is structural — each distinct seed
// solved once instead of once per query — not cache state.
func BenchmarkSearchBatch(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: benchSeed, Scale: benchScale})
	g := d.Graph
	g.Transitions()
	opt := Options{
		ContextSize:    30,
		Selector:       SelectorRandomWalk,
		Seed:           benchSeed,
		CacheSize:      -1,
		TestSamples:    500,
		TestExactLimit: 5000,
	}
	e := NewEngine(g, opt)
	cohort, err := d.Scenario("actors").QueryIDs(g, 6)
	if err != nil {
		b.Fatal(err)
	}
	var queries [][]NodeID
	for drop := 0; drop < len(cohort); drop++ {
		q := make([]NodeID, 0, len(cohort)-1)
		for i, id := range cohort {
			if i != drop {
				q = append(q, id)
			}
		}
		queries = append(queries, q)
	}
	queries = append(queries, cohort, cohort[:4])
	b.Run("b=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.DoBatch(context.Background(), asQueries(queries[:1])); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b=8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.DoBatch(context.Background(), asQueries(queries)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/query")
	})
	b.Run("sequential8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := e.Do(context.Background(), Query{Nodes: q}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/query")
	})
}

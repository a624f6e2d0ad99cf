package notable

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/qcache"
)

// refineSteps is an interactive session over the leaders graph: each
// query differs from its predecessor by roughly one entity — adds,
// removals, a permutation, and one revisit.
func refineSteps(t testing.TB, e *Engine) [][]NodeID {
	t.Helper()
	ids, err := e.Resolve("Angela Merkel", "Barack Obama", "Vladimir Putin",
		"Matteo Renzi", "François Hollande", "David Cameron")
	if err != nil {
		t.Fatal(err)
	}
	// No permuted revisits here: the selector layer intentionally serves
	// one canonical vector per entity set, whose low-order bits may differ
	// from a cold solve in the permuted fold order — pinned separately by
	// TestEngineRefinePermutation.
	return [][]NodeID{
		{ids[0], ids[1]},
		{ids[0], ids[1], ids[2]},         // +1
		{ids[0], ids[1], ids[2], ids[3]}, // +1
		{ids[1], ids[2], ids[3]},         // -1
		{ids[1], ids[3]},                 // -1
		{ids[1], ids[2], ids[3], ids[4]}, // +1 (and one re-add)
		{ids[4], ids[5]},                 // mostly new
		{ids[0], ids[1], ids[2]},         // revisit
	}
}

// withSeedLayerBytes replaces e's cache, before e has served anything, by
// one whose seed layer is bounded to bytes instead of SeedLayerBytes — a
// bound small enough to evict on the test graphs.
func withSeedLayerBytes(e *Engine, bytes int64) *Engine {
	cfg := qcache.Config{Capacity: DefaultCacheSize}
	cfg.LayerBudgets[qcache.LayerSeed] = bytes
	e.cache = qcache.NewSharded(cfg)
	return e
}

// TestEngineRefineMatchesColdSearch is the refinement fast path's
// acceptance invariant: walking an interactive session on one warm
// engine returns, at every step, exactly — DeepEqual on the full Result —
// what a cache-disabled engine computes cold, for every seed-layer bound:
// tiny (forcing evictions mid-sequence) and the fixed SeedLayerBytes.
// Monte-Carlo testing is forced so the sampler is exercised end to end
// too.
func TestEngineRefineMatchesColdSearch(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3,
		TestSamples: 300, TestExactLimit: 1}
	coldOpt := opt
	coldOpt.CacheSize = -1
	cold := NewEngine(g, coldOpt)
	steps := refineSteps(t, cold)
	want := make([]Result, len(steps))
	for i, q := range steps {
		r, err := cold.Do(context.Background(), Query{Nodes: q})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, name := range []string{"tiny", "ample"} {
		warm := NewEngine(g, opt)
		if name == "tiny" {
			warm = withSeedLayerBytes(warm, 600)
		}
		for i, q := range steps {
			got, err := warm.Do(context.Background(), Query{Nodes: q})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("budget=%s: refinement step %d differs from cold search", name, i)
			}
		}
		st := warm.CacheStats()
		seed := st.Layers[qcache.LayerSeed]
		switch name {
		case "tiny":
			if st.Evictions == 0 {
				t.Fatalf("tiny seed budget must evict mid-sequence: %+v", st)
			}
			if seed.Hits == 0 {
				t.Fatalf("tiny budget should still hit retained seeds: %+v", st)
			}
		case "ample":
			if seed.Hits == 0 || seed.Misses == 0 {
				t.Fatalf("seed layer not exercised: %+v", st)
			}
			// Six distinct entities appear across the session; each is
			// solved at most once per appearance set under an ample
			// budget (the revisit and permutation are pure hits).
			if seed.Misses > 6 {
				t.Fatalf("ample budget re-solved a seed: %+v", st)
			}
		}
	}
}

// TestEngineRefinePermutation pins the permuted-revisit semantics: a
// warm engine answers a permutation of a cached query as its own query —
// the seed layer serves every seed, but the selector and test layers are
// keyed by the order asked — so the context and characteristics are
// exactly a cold engine's for the permuted order.
func TestEngineRefinePermutation(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 300})
	ids, err := e.Resolve("Angela Merkel", "Barack Obama", "Vladimir Putin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Query{Nodes: []NodeID{ids[0], ids[1], ids[2]}}); err != nil {
		t.Fatal(err)
	}
	permuted := Query{Nodes: []NodeID{ids[2], ids[0], ids[1]}}
	perm, err := e.Do(context.Background(), permuted)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewEngine(g, Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 300, CacheSize: -1}).Do(context.Background(), permuted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perm.Context, cold.Context) {
		t.Fatal("permuted revisit's context differs from a cold engine's")
	}
	if !reflect.DeepEqual(perm.Characteristics, cold.Characteristics) {
		t.Fatal("permuted revisit's characteristics differ from a cold engine's")
	}
}

// TestEngineRefineSearchBatchConsistency: mixing the batched path into a
// refinement session — warm the engine per query, then re-run the whole
// session as one DoBatch — stays bitwise identical and solve-free.
func TestEngineRefineSearchBatchConsistency(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 300}
	e := NewEngine(g, opt)
	steps := refineSteps(t, e)
	want := make([]Result, len(steps))
	for i, q := range steps {
		r, err := e.Do(context.Background(), Query{Nodes: q})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	missesBefore := e.CacheStats().Misses
	got, err := e.DoBatch(context.Background(), asQueries(steps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm batch differs from the sequential session")
	}
	if st := e.CacheStats(); st.Misses != missesBefore {
		t.Fatalf("warm batch re-missed: %+v", st)
	}
}

// BenchmarkEngineRefineSearch is the refinement fast path's acceptance
// benchmark: one Do that adds a previously unseen entity to a warm
// 3-actor query, against the same 4-entity query on a cache-disabled
// engine (cold). Every iteration refines with a different entity (cycling
// a 1024-node pool, far beyond any -benchtime used here), so the refined
// query itself is never served from the selector layer — the fast path
// under test is the per-seed vector reuse, not query repetition. Testing
// runs in the Monte-Carlo regime (TestExactLimit 1), which costs both
// sides the same. Acceptance: refine ≥3x lower ns/op than cold.
func BenchmarkEngineRefineSearch(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: benchSeed, Scale: benchScale})
	g := d.Graph
	g.Transitions()
	base, err := d.Scenario("actors").QueryIDs(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	inBase := map[NodeID]bool{}
	for _, s := range base {
		inBase[s] = true
	}
	// A deterministic pool of refinement entities spread over the graph.
	var pool []NodeID
	n := uint64(g.NumNodes())
	for i := uint64(1); len(pool) < 1024; i++ {
		id := NodeID((i * 2654435761) % n)
		if !inBase[id] {
			pool = append(pool, id)
		}
	}
	opt := Options{
		ContextSize:    30,
		Selector:       SelectorRandomWalk,
		Seed:           benchSeed,
		TestSamples:    20000,
		TestExactLimit: 1,
	}
	query := func(i int) []NodeID {
		return append(append([]NodeID(nil), base...), pool[i%len(pool)])
	}
	b.Run("refine", func(b *testing.B) {
		e := NewEngine(g, opt)
		if _, err := e.Do(context.Background(), Query{Nodes: base}); err != nil {
			b.Fatal(err) // warm the 3 base seeds
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Do(context.Background(), Query{Nodes: query(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		coldOpt := opt
		coldOpt.CacheSize = -1
		e := NewEngine(g, coldOpt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Do(context.Background(), Query{Nodes: query(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

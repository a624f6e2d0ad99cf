package ppr

import (
	"context"
	"testing"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// seedCacheOf builds a cache whose seed layer is bounded to budget bytes
// (0 = unbounded layer).
func seedCacheOf(budget int64) *qcache.Cache {
	var lb [qcache.NumLayers]int64
	lb[qcache.LayerSeed] = budget
	return qcache.NewSharded(qcache.Config{Capacity: 1 << 16, LayerBudgets: lb})
}

// assertSameBits fails unless got and want are bitwise identical vectors.
func assertSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: differs at node %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// refinementSequence is an interactive session: heavily overlapping
// queries differing by ±1 seed, with one duplicate-seed query.
func refinementSequence() [][]kg.NodeID {
	return [][]kg.NodeID{
		{3, 7},
		{3, 7, 11},         // +1 seed: only 11 should solve on a warm cache
		{3, 7, 11, 19},     // +1 more
		{7, 11, 19},        // -1 seed: zero solves
		{7, 11, 19, 7},     // duplicate seed: folds 7 twice
		{23, 3, 7},         // new seed plus warm ones, permuted order
		{3, 7, 11, 19, 23}, // all warm
	}
}

// TestPersonalizedSumSeedCacheBitwise: for every seed-cache budget
// (tiny — evicting mid-sequence — and ample), a refinement sequence
// returns exactly the workspace fold's bits at every step.
func TestPersonalizedSumSeedCacheBitwise(t *testing.T) {
	g := randomGraph(400, 1600, 12)
	seq := refinementSequence()
	want := make([][]float64, len(seq))
	for i, q := range seq {
		want[i] = refPersonalizedSum(g, q, Options{})
	}
	for name, budget := range map[string]int64{"tiny": 6000, "ample": 0} {
		cache := seedCacheOf(budget)
		opt := Options{SeedCache: cache}
		for i, q := range seq {
			got := PersonalizedSumCtx(context.Background(), g, q, opt)
			assertSameBits(t, name, got, want[i])
		}
		st := cache.Stats()
		if st.Layers[qcache.LayerSeed].Hits == 0 {
			t.Fatalf("budget=%s: seed cache never hit: %+v", name, st)
		}
		if name == "tiny" && st.Evictions == 0 {
			t.Fatalf("tiny budget must evict mid-sequence: %+v", st)
		}
		if name == "ample" && st.Evictions != 0 {
			t.Fatalf("ample budget must not evict: %+v", st)
		}
	}
}

// TestPersonalizedSumSeedCacheDense: cached vectors from solves that
// saturate into the dense regime fold back bitwise identically too.
func TestPersonalizedSumSeedCacheDense(t *testing.T) {
	// Enough edges and iterations that single-seed solves go dense.
	g := randomGraph(300, 6000, 5)
	opt := Options{Iterations: 12}
	seq := [][]kg.NodeID{{1, 2}, {1, 2, 3}, {2, 3}}
	want := make([][]float64, len(seq))
	for i, q := range seq {
		want[i] = refPersonalizedSum(g, q, opt)
	}
	cached := opt
	cached.SeedCache = seedCacheOf(0)
	for i, q := range seq {
		assertSameBits(t, "dense", PersonalizedSumCtx(context.Background(), g, q, cached), want[i])
	}
	if st := cached.SeedCache.Stats(); st.Layers[qcache.LayerSeed].Bytes == 0 || st.Layers[qcache.LayerSeed].Hits == 0 {
		t.Fatalf("dense vectors not cached: %+v", st)
	}
}

// TestPersonalizedSumMultiSeedCacheBitwise: the batched solve consults
// and fills the same per-seed store — a batch after a warm-up solves only
// unseen seeds and returns the workspace fold's bits, and a subsequent
// PersonalizedSum hits vectors the batch stored (cross-path reuse).
func TestPersonalizedSumMultiSeedCacheBitwise(t *testing.T) {
	g := randomGraph(400, 1600, 77)
	queries := [][]kg.NodeID{{3, 7, 11}, {7, 19}, {11, 19, 23}, {3}}
	want := make([][]float64, len(queries))
	for i, q := range queries {
		want[i] = refPersonalizedSum(g, q, Options{})
	}
	cache := seedCacheOf(0)
	opt := Options{SeedCache: cache}
	// Warm two seeds through the solo path first.
	warmSolo := PersonalizedSumCtx(context.Background(), g, []kg.NodeID{3, 7}, opt)
	assertSameBits(t, "warm-solo", warmSolo, refPersonalizedSum(g, []kg.NodeID{3, 7}, Options{}))
	got := PersonalizedSumMultiCtx(context.Background(), g, queries, opt)
	for i := range want {
		assertSameBits(t, "multi", got[i], want[i])
	}
	st := cache.Stats()
	// The batch must have hit the two warmed seeds.
	if st.Layers[qcache.LayerSeed].Hits < 2 {
		t.Fatalf("batch ignored warm seeds: %+v", st)
	}
	// And a refinement over seeds the batch introduced is all hits.
	misses := st.Layers[qcache.LayerSeed].Misses
	refined := PersonalizedSumCtx(context.Background(), g, []kg.NodeID{11, 19, 23}, opt)
	assertSameBits(t, "refine-after-batch", refined, refPersonalizedSum(g, []kg.NodeID{11, 19, 23}, Options{}))
	if st2 := cache.Stats(); st2.Layers[qcache.LayerSeed].Misses != misses {
		t.Fatalf("refinement after batch missed: %+v", st2)
	}
}

// TestPersonalizedSumMultiSeedCacheBlockedKernel, named for the blocked
// multi-vector kernel batches once ran, runs a batch of saturating seeds
// on a small graph and checks their dense vectors are cached and bitwise
// identical on reuse.
func TestPersonalizedSumMultiSeedCacheBlockedKernel(t *testing.T) {
	g := randomGraph(300, 6000, 9)
	opt := Options{Iterations: 12}
	queries := [][]kg.NodeID{{1, 2, 3}, {2, 4}, {5, 6}}
	want := PersonalizedSumMultiCtx(context.Background(), g, queries, opt)
	cached := opt
	cached.SeedCache = seedCacheOf(0)
	got := PersonalizedSumMultiCtx(context.Background(), g, queries, cached)
	for i := range want {
		assertSameBits(t, "blocked", got[i], want[i])
	}
	// Re-running the whole batch is now solve-free and identical.
	misses := cached.SeedCache.Stats().Layers[qcache.LayerSeed].Misses
	again := PersonalizedSumMultiCtx(context.Background(), g, queries, cached)
	for i := range want {
		assertSameBits(t, "blocked-warm", again[i], want[i])
	}
	if st := cached.SeedCache.Stats(); st.Layers[qcache.LayerSeed].Misses != misses {
		t.Fatalf("warm batch re-solved seeds: %+v", st)
	}
}

// TestSeedCacheKeySeparatesOptions: vectors cached under one option set
// must not serve another (damping and iterations both change bits).
func TestSeedCacheKeySeparatesOptions(t *testing.T) {
	g := randomGraph(200, 800, 31)
	cache := seedCacheOf(0)
	q := []kg.NodeID{3, 9}
	base := PersonalizedSumCtx(context.Background(), g, q, Options{SeedCache: cache})
	for _, opt := range []Options{
		{Damping: 0.2, SeedCache: cache},
		{Iterations: 5, SeedCache: cache},
	} {
		plain := opt
		plain.SeedCache = nil
		got := PersonalizedSumCtx(context.Background(), g, q, opt)
		assertSameBits(t, "options", got, refPersonalizedSum(g, q, plain))
		same := true
		for i := range got {
			if got[i] != base[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("option change %+v returned the default-option bits — key collision", opt)
		}
	}
}

// TestSeedCacheDenseVectorsExactSize: a cached dense vector is exactly n
// long with no spare capacity, and the seed layer charges 8n plus the key
// plus 64 bytes for it — the workspace's growth headroom never reaches the
// cache, through a sum or a batch (the "blocked" row, named for the
// blocked kernel batches once ran).
func TestSeedCacheDenseVectorsExactSize(t *testing.T) {
	g := randomGraph(300, 6000, 5)
	n := g.NumNodes()
	opt := Options{Iterations: 12}
	seeds := []kg.NodeID{1, 2, 3}
	sums := map[string]func(Options){
		"fold":    func(o Options) { PersonalizedSumCtx(context.Background(), g, seeds, o) },
		"blocked": func(o Options) { PersonalizedSumMultiCtx(context.Background(), g, [][]kg.NodeID{seeds}, o) },
	}
	for name, sum := range sums {
		cached := opt
		cached.SeedCache = seedCacheOf(0)
		sum(cached)
		bytes := cached.SeedCache.Stats().Layers[qcache.LayerSeed].Bytes
		prefix := seedKeyPrefix(cached.withDefaults())
		var want int64
		for _, s := range seeds {
			key := seedKey(prefix, s)
			e, ok := cached.SeedCache.GetLayer(key, qcache.LayerSeed)
			if !ok {
				t.Fatalf("%s: seed %d not cached", name, s)
			}
			v := e.(*seedVec)
			if v.dense == nil {
				t.Fatalf("%s: seed %d stayed sparse; the graph must saturate", name, s)
			}
			if len(v.dense) != n || cap(v.dense) != n {
				t.Fatalf("%s: seed %d: dense vector len %d cap %d, want %d", name, s, len(v.dense), cap(v.dense), n)
			}
			if got, w := v.footprint(len(key)), 8*int64(n)+int64(len(key))+64; got != w {
				t.Fatalf("%s: seed %d: footprint %d, want %d", name, s, got, w)
			}
			want += v.footprint(len(key))
		}
		if bytes != want {
			t.Fatalf("%s: seed layer holds %d bytes, want %d", name, bytes, want)
		}
	}
}

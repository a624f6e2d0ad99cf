package ppr

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// sentinel carries a pointer so that it is never tiny-allocated: a tiny
// block shared with other objects may never be finalized.
type sentinel struct{ _ *int }

// armSentinel sets a finalizer that closes done on an object nothing
// references.
func armSentinel(done chan struct{}) {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
}

// settleFinalizers returns once the finalizer of every object that was
// unreachable at the call has run. runtime.GC queues them all before it
// returns, and the finalizer goroutine runs the whole queue it takes
// before it takes the next, so a sentinel armed after the first one ran
// runs after every finalizer queued with the first.
func settleFinalizers() {
	for range 2 {
		done := make(chan struct{})
		armSentinel(done)
		runtime.GC()
		<-done
	}
}

// denseGraph is a graph on which every single-seed solve at denseOpt
// saturates, so every kept vector is mapped.
func denseGraph() *kg.Graph { return randomGraph(300, 6000, 5) }

var denseOpt = Options{Iterations: 12}

// TestSeedVecOwnershipRefcount walks one mapped vector through its owners:
// the extracting fold, the cache, a reader that finds it cached. It stays
// mapped while any of them holds it, the Purge that drops the last
// reference unmaps it at once, and it can no longer be acquired.
func TestSeedVecOwnershipRefcount(t *testing.T) {
	g := denseGraph()
	n := g.NumNodes()
	settleFinalizers()
	base := SeedMappedBytes()

	ws := getWorkspace(n)
	personalizedInto(context.Background(), g, 1, denseOpt.withDefaults(), ws)
	v := extractSeedVec(ws)
	ws.release()
	if v.dense == nil {
		t.Fatal("the test graph must saturate a single-seed solve")
	}
	want := append([]float64(nil), v.dense...)
	if got := SeedMappedBytes() - base; got != 8*int64(n) {
		t.Fatalf("one extracted vector maps %d bytes, want %d", got, 8*n)
	}
	cache := seedCacheOf(0)
	v.acquire()
	cache.PutSized("k", v, qcache.LayerSeed, v.footprint(1))
	v.Release() // the fold's
	got, ok := cache.GetLayer("k", qcache.LayerSeed)
	if !ok || !got.(*seedVec).tryAcquire() {
		t.Fatal("a cached vector could not be acquired")
	}
	cache.Purge(qcache.LayerSeed) // the cache's reference; the reader's holds
	if got := SeedMappedBytes() - base; got != 8*int64(n) {
		t.Fatalf("purged while read: %d bytes mapped, want %d", got, 8*n)
	}
	sum := make([]float64, n)
	v.foldInto(sum)
	assertSameBits(t, "read after purge", sum, want)
	v.Release() // the reader's, the last
	if got := SeedMappedBytes(); got != base {
		t.Fatalf("after the last release %d bytes mapped, want %d", got, base)
	}
	if v.tryAcquire() {
		t.Fatal("a released vector was acquired")
	}
	// The next vector of the same length reuses a spare: the released
	// mapping, or one an earlier test gave back.
	spared := make(map[*byte]bool)
	spares.Lock()
	for _, m := range spares.mems {
		spared[unsafe.SliceData(m)] = true
	}
	spares.Unlock()
	if !spared[unsafe.SliceData(v.mem)] {
		t.Fatal("the released mapping was not kept as a spare")
	}
	ws = getWorkspace(n)
	personalizedInto(context.Background(), g, 2, denseOpt.withDefaults(), ws)
	w := extractSeedVec(ws)
	ws.release()
	if !spared[unsafe.SliceData(w.mem)] {
		t.Fatal("a new vector mapped afresh with a spare of its length at hand")
	}
	assertSameBits(t, "vector in a reused mapping", w.dense, solo(g, 2, denseOpt))
	w.Release()
}

// TestSeedVecOwnershipNilCache: without a seed cache, a seed a batch
// repeats is kept mapped only until its last fold.
func TestSeedVecOwnershipNilCache(t *testing.T) {
	g := denseGraph()
	settleFinalizers()
	base := SeedMappedBytes()
	queries := [][]kg.NodeID{{1, 2}, {2, 3}, {1, 1}}
	got := PersonalizedSumMultiCtx(context.Background(), g, queries, denseOpt)
	for qi, q := range queries {
		assertSameBits(t, "nil cache", got[qi], refPersonalizedSum(g, q, denseOpt))
	}
	if got := SeedMappedBytes(); got != base {
		t.Fatalf("%d bytes mapped after a cacheless batch, want %d", got, base)
	}
}

// TestSeedVecOwnershipConcurrentFolds races sums, batches, streams and
// cancelled folds against evictions from a seed layer that holds three
// vectors and against Purges: every released sum equals the reference
// fold's bits, and once the folds are done and the cache purged nothing
// stays mapped.
func TestSeedVecOwnershipConcurrentFolds(t *testing.T) {
	g := denseGraph()
	queries := [][]kg.NodeID{{1, 2, 3}, {2, 4}, {5, 6, 1}, {3, 3, 7}, {8}, {2, 5, 9}, {9, 1}}
	want := make([][]float64, len(queries))
	for qi, q := range queries {
		want[qi] = refPersonalizedSum(g, q, denseOpt)
	}
	settleFinalizers()
	base := SeedMappedBytes()
	cached := denseOpt
	cached.SeedCache = seedCacheOf(3 * (8*int64(g.NumNodes()) + 96))

	// The purger drops the seed layer once per tick, and a worker ticks
	// (without waiting) as it starts each call.
	tick := make(chan struct{})
	purged := make(chan struct{})
	go func() {
		defer close(purged)
		for range tick {
			cached.SeedCache.Purge(qcache.LayerSeed)
		}
	}()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 12 {
				// Every worker and round runs the queries in its own rotation.
				order := make([]int, len(queries))
				qs := make([][]kg.NodeID, len(queries))
				for i := range order {
					order[i] = (i + w + round) % len(queries)
					qs[i] = queries[order[i]]
				}
				check := func(qi int, sum []float64) {
					for j := range sum {
						if sum[j] != want[order[qi]][j] {
							t.Errorf("worker %d round %d: query %v differs at node %d", w, round, qs[qi], j)
							return
						}
					}
				}
				select {
				case tick <- struct{}{}:
				default:
				}
				switch round % 4 {
				case 0:
					check(0, PersonalizedSumCtx(context.Background(), g, qs[0], cached))
				case 1:
					for qi, sum := range PersonalizedSumMultiCtx(context.Background(), g, qs, cached) {
						check(qi, sum)
					}
				case 2:
					_ = PersonalizedSumMultiStream(context.Background(), g, qs, cached, check)
				case 3:
					// A fold cut mid-batch releases whatever it holds.
					_ = PersonalizedSumMultiStream(newCountdownCtx(int64(5+w*7)), g, qs, cached, check)
				}
			}
		}()
	}
	wg.Wait()
	close(tick)
	<-purged
	if st := cached.SeedCache.Stats(); st.Evictions == 0 || st.Layers[qcache.LayerSeed].Hits == 0 {
		t.Errorf("the race never evicted or never hit: %+v", st)
	}
	cached.SeedCache.Purge(qcache.LayerSeed)
	if got := SeedMappedBytes(); got != base {
		t.Fatalf("%d bytes mapped after every fold finished and the cache was purged, want %d", got, base)
	}
	spares.Lock()
	defer spares.Unlock()
	if len(spares.mems) > maxSpares {
		t.Fatalf("%d spare mappings kept, want ≤ %d", len(spares.mems), maxSpares)
	}
}

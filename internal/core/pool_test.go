package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qcache"
)

// TestCompareSetsPoolBound verifies the comparison stage holds at most
// Parallelism concurrent label tasks — a fixed worker pool, not a
// goroutine per label gated by a semaphore.
func TestCompareSetsPoolBound(t *testing.T) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	for _, par := range []int{1, 2, 3} {
		var inFlight, peak atomic.Int64
		testLabelHook = func() {
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			// Hold the slot long enough for would-be over-spawned workers
			// to pile up observably.
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		}
		chars := compareSets(t, g, query, ctx, Options{Seed: 7, Parallelism: par})
		testLabelHook = nil
		if len(chars) == 0 {
			t.Fatal("no characteristics tested")
		}
		if got := peak.Load(); got > int64(par) {
			t.Fatalf("Parallelism=%d: %d concurrent label tasks observed", par, got)
		}
	}
}

// TestCompareSetsParallelismIdentical: every worker count produces the
// exact same report — per-label slots plus a deterministic sort.
func TestCompareSetsParallelismIdentical(t *testing.T) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	want := compareSets(t, g, query, ctx, Options{Seed: 7, Parallelism: 1})
	for _, par := range []int{2, 4, 8, 64} {
		got := compareSets(t, g, query, ctx, Options{Seed: 7, Parallelism: par})
		if len(got) != len(want) {
			t.Fatalf("Parallelism=%d: %d labels vs %d", par, len(got), len(want))
		}
		for i := range want {
			a, b := want[i], got[i]
			if a.Name != b.Name || a.Score != b.Score || a.InstP != b.InstP || a.CardP != b.CardP {
				t.Fatalf("Parallelism=%d differs at %d: %+v vs %+v", par, i, a, b)
			}
		}
	}
}

// TestCompareSetsEmptyInput: a query/context pair without labels must not
// wedge or panic the pool.
func TestCompareSetsEmptyInput(t *testing.T) {
	g, _ := leadersGraph()
	if chars := compareSets(t, g, nil, nil, Options{Seed: 1}); len(chars) != 0 {
		t.Fatalf("empty input produced %d characteristics", len(chars))
	}
}

// TestCompareSetsTestCache: a warm repeat serves the whole report from the
// memo — one test-layer miss cold, one hit warm, and no label tested — and
// returns the identical report.
func TestCompareSetsTestCache(t *testing.T) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	cache := qcache.NewSharded(qcache.Config{Capacity: 1024})
	opt := Options{Seed: 7, Cache: &Cache{Store: cache}}
	cold := compareSets(t, g, query, ctx, opt)
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Layers[qcache.LayerTest].Misses != 1 {
		t.Fatalf("cold run: %+v, want one test-layer miss and no hits", st)
	}
	var tested atomic.Int64
	testLabelHook = func() { tested.Add(1) }
	warm := compareSets(t, g, query, ctx, opt)
	testLabelHook = nil
	st = cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Layers[qcache.LayerTest].Hits != 1 {
		t.Fatalf("warm run: %+v, want one test-layer hit", st)
	}
	if n := tested.Load(); n != 0 {
		t.Fatalf("warm run tested %d labels, want 0", n)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm report is not DeepEqual to the cold one")
	}
	for i := range cold {
		a, b := cold[i], warm[i]
		if a.Name != b.Name || a.Score != b.Score || a.InstP != b.InstP || a.CardP != b.CardP {
			t.Fatalf("cached report differs at %d: %+v vs %+v", i, a, b)
		}
	}
	// A permuted query is the same multiset: still fully warm.
	perm := []uint32{query[1], query[0]}
	compareSets(t, g, perm, ctx, opt)
	if st = cache.Stats(); st.Hits != 2 {
		t.Fatalf("permuted query missed the memo: %+v", st)
	}
}

// TestCompareSetsTestCacheCallerOwnsSlices: mutating a returned record's
// distribution slices must not corrupt the cached master — callers own
// what they receive, exactly as without a cache.
func TestCompareSetsTestCacheCallerOwnsSlices(t *testing.T) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	opt := Options{Seed: 7, Cache: &Cache{Store: qcache.NewSharded(qcache.Config{Capacity: 1024})}}
	first := compareSets(t, g, query, ctx, opt)
	for i := range first {
		for j := range first[i].Inst.Query {
			first[i].Inst.Query[j] = -999
		}
		for j := range first[i].Card.Context {
			first[i].Card.Context[j] = -999
		}
	}
	warm := compareSets(t, g, query, ctx, opt)
	for _, c := range warm {
		for _, v := range c.Inst.Query {
			if v == -999 {
				t.Fatalf("%s: cached instance counts were corrupted by a caller mutation", c.Name)
			}
		}
		for _, v := range c.Card.Context {
			if v == -999 {
				t.Fatalf("%s: cached cardinality counts were corrupted by a caller mutation", c.Name)
			}
		}
	}
}

// TestCompareSetsTestCacheKeying: anything that changes a test outcome —
// context, query multiplicity, policy — must key separately.
func TestCompareSetsTestCacheKeying(t *testing.T) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	cache := qcache.NewSharded(qcache.Config{Capacity: 4096})
	base := Options{Seed: 7, Cache: &Cache{Store: cache}}
	compareSets(t, g, query, ctx, base)
	miss0 := cache.Stats().Misses

	// Shorter context: new distributions, all labels recompute.
	compareSets(t, g, query, ctx[:len(ctx)-1], base)
	if st := cache.Stats(); st.Misses == miss0 {
		t.Fatal("shrunken context reused stale entries")
	}
	miss1 := cache.Stats().Misses

	// Duplicated query node: the multiset changed, counts double.
	dup := []uint32{query[0], query[0], query[1]}
	dupChars := compareSets(t, g, dup, ctx, base)
	if st := cache.Stats(); st.Misses == miss1 {
		t.Fatal("duplicate-node query reused the deduplicated entries")
	}
	single := compareSets(t, g, query, ctx, base)
	// Sanity: the duplicated query genuinely observes different counts.
	a := byName(t, single, "studied")
	b := byName(t, dupChars, "studied")
	sum := func(xs []int) int {
		n := 0
		for _, x := range xs {
			n += x
		}
		return n
	}
	if sum(b.Inst.Query) <= sum(a.Inst.Query) {
		t.Fatalf("duplicated query should add observations: %d vs %d",
			sum(b.Inst.Query), sum(a.Inst.Query))
	}
}

func BenchmarkCompareSets(b *testing.B) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compareSets(b, g, query, ctx, Options{Seed: 1})
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		opt := Options{Seed: 1, Cache: &Cache{Store: qcache.NewSharded(qcache.Config{Capacity: 1024})}}
		compareSets(b, g, query, ctx, opt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compareSets(b, g, query, ctx, opt)
		}
	})
}

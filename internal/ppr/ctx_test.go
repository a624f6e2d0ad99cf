package ppr

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// countdownCtx cancels after a fixed number of Err() probes — the solve
// loops check ctx between sweeps, so probe k is a deterministic mid-solve
// cut point.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// probes returns how many Err() checks have been consumed.
func (c *countdownCtx) probes(budget int64) int64 { return budget - c.left.Load() }

// TestPersonalizedSumCtxLiveMatchesPlain: a live ctx changes nothing —
// a solve under a probed-but-never-cancelled ctx is bitwise identical to
// one under context.Background().
func TestPersonalizedSumCtxLiveMatchesPlain(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	seeds := []kg.NodeID{3, 7, 11}
	want := PersonalizedSumCtx(context.Background(), g, seeds, Options{})
	got := PersonalizedSumCtx(newCountdownCtx(1<<30), g, seeds, Options{})
	assertSameBits(t, "live-ctx", got, want)
}

// TestPersonalizedSumCtxCancelledMidSolve: cutting the solve at every
// probe depth never corrupts the seed cache. Seeds whose solves finished
// before the cut may be stored — those vectors are complete — but a cut
// before any solve completes stores nothing, and whatever an aborted run
// left behind, a subsequent live run over the same cache must return the
// exact bits of the workspace fold (a partial vector in the cache would
// break this).
func TestPersonalizedSumCtxCancelledMidSolve(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	seeds := []kg.NodeID{3, 7, 11, 19}
	want := refPersonalizedSum(g, seeds, Options{})

	const budget = int64(1 << 30)
	full := newCountdownCtx(budget)
	PersonalizedSumCtx(full, g, seeds, Options{})
	total := full.probes(budget)
	if total < 4 {
		t.Fatalf("solve only probed ctx %d times", total)
	}
	for k := int64(0); k < total; k += 1 + total/8 {
		cache := seedCacheOf(0)
		PersonalizedSumCtx(newCountdownCtx(k), g, seeds, Options{SeedCache: cache})
		if k == 0 {
			// Cut before anything solved: the cache must be untouched.
			if st := cache.Stats(); st.Layers[qcache.LayerSeed].Bytes != 0 || st.Size != 0 {
				t.Fatalf("first-probe cut stored %d bytes / %d entries",
					st.Layers[qcache.LayerSeed].Bytes, st.Size)
			}
		}
		// The same cache must still serve a live run correctly afterwards.
		got := PersonalizedSumCtx(context.Background(), g, seeds, Options{SeedCache: cache})
		assertSameBits(t, "post-abort", got, want)
	}
}

// TestPersonalizedSumMultiCtxCancelled: the batched solve aborts cleanly
// at every cut depth. Its contract is the per-seed fold's, as
// TestPersonalizedSumCtxCancelledMidSolve states it: a first-probe cut
// stores nothing, a cut batch returns all-nil rows, and whatever a cut
// run stored — only seeds whose solves finished — serves a fresh run over
// the same cache bit for bit.
func TestPersonalizedSumMultiCtxCancelled(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	rng := rand.New(rand.NewSource(29))
	queries := batchQueries(rng, 6, 4, g.NumNodes())
	want := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{})

	const budget = int64(1 << 30)
	full := newCountdownCtx(budget)
	PersonalizedSumMultiCtx(full, g, queries, Options{})
	total := full.probes(budget)
	for k := int64(0); k < total; k += 1 + total/8 {
		cache := seedCacheOf(0)
		out := PersonalizedSumMultiCtx(newCountdownCtx(k), g, queries, Options{SeedCache: cache})
		if st := cache.Stats(); k == 0 && st.Size != 0 {
			t.Fatalf("first-probe cut stored %d entries", st.Size)
		}
		for qi := range out {
			if out[qi] != nil {
				t.Fatalf("cut %d: query %d returned a row", k, qi)
			}
		}
		got := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{SeedCache: cache})
		for qi := range queries {
			assertSameBits(t, "post-abort-batch", got[qi], want[qi])
		}
	}
}

// TestPersonalizedSumMultiStreamBitwise: the stream releases every query
// exactly once with bitwise the barriered batch's vectors, with and
// without a seed cache.
func TestPersonalizedSumMultiStreamBitwise(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	rng := rand.New(rand.NewSource(41))
	queries := batchQueries(rng, 8, 4, g.NumNodes())
	for _, cached := range []bool{false, true} {
		opt := Options{}
		if cached {
			opt.SeedCache = seedCacheOf(0)
		}
		want := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{})
		got := make([][]float64, len(queries))
		calls := 0
		err := PersonalizedSumMultiStream(context.Background(), g, queries, opt, func(qi int, sum []float64) {
			calls++
			if got[qi] != nil {
				t.Fatalf("query %d released twice", qi)
			}
			got[qi] = sum
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(queries) {
			t.Fatalf("cached=%v: %d releases for %d queries", cached, calls, len(queries))
		}
		for qi := range queries {
			assertSameBits(t, "stream", got[qi], want[qi])
		}
		if cached {
			// A second streamed pass is all cache hits, released
			// before any solving, same bits.
			again := make([][]float64, len(queries))
			if err := PersonalizedSumMultiStream(context.Background(), g, queries, opt, func(qi int, sum []float64) {
				again[qi] = sum
			}); err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				assertSameBits(t, "stream-warm", again[qi], want[qi])
			}
		}
	}
}

// TestPersonalizedSumMultiStreamCachedFirst: under an already-cancelled
// ctx the stream solves nothing, yet a query the seed cache serves whole
// is still released — and only that one — with the barriered batch's
// bits, while a query with an uncached seed is not.
func TestPersonalizedSumMultiStreamCachedFirst(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	queries := [][]kg.NodeID{{5, 9}, {3, 7}}
	want := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{})
	opt := Options{SeedCache: seedCacheOf(0)}
	PersonalizedSumCtx(context.Background(), g, queries[1], opt) // caches 3 and 7
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var released []int
	var sum []float64
	err := PersonalizedSumMultiStream(ctx, g, queries, opt, func(qi int, s []float64) {
		released, sum = append(released, qi), s
	})
	if err == nil {
		t.Fatal("cancelled stream returned nil error")
	}
	if len(released) != 1 || released[0] != 1 {
		t.Fatalf("released queries %v, want exactly [1]", released)
	}
	assertSameBits(t, "cached-whole", sum, want[1])
}

// TestPersonalizedSumMultiStreamCancelled: a cancelled stream returns
// ctx.Err(), never releases a partial vector, and never double-releases.
func TestPersonalizedSumMultiStreamCancelled(t *testing.T) {
	g := randomGraph(400, 1600, 17)
	rng := rand.New(rand.NewSource(53))
	queries := batchQueries(rng, 6, 4, g.NumNodes())
	want := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{})

	const budget = int64(1 << 30)
	full := newCountdownCtx(budget)
	PersonalizedSumMultiStream(full, g, queries, Options{}, func(int, []float64) {})
	total := full.probes(budget)
	for k := int64(0); k < total; k += 1 + total/8 {
		released := make([][]float64, len(queries))
		err := PersonalizedSumMultiStream(newCountdownCtx(k), g, queries, Options{}, func(qi int, sum []float64) {
			if released[qi] != nil {
				t.Fatalf("cut %d: query %d released twice", k, qi)
			}
			released[qi] = sum
		})
		if err == nil {
			t.Fatalf("cut %d: cancelled stream returned nil error", k)
		}
		for qi := range released {
			if released[qi] != nil {
				assertSameBits(t, "released-before-cancel", released[qi], want[qi])
			}
		}
	}
}

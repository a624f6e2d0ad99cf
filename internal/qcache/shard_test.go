package qcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestShardCountRounding: shard counts round up to a power of two and
// Stats reports the resolved count.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {4096, 1024},
	} {
		c := NewSharded(Config{Capacity: 64, Shards: tc.in})
		if got := c.Stats().Shards; got != tc.want {
			t.Fatalf("Shards=%d resolved to %d shards, want %d", tc.in, got, tc.want)
		}
	}
	var nilCache *Cache
	if nilCache.Stats().Shards != 0 {
		t.Fatal("nil cache must report zero shards")
	}
}

// TestShardedBasicOps: Get/Put/refresh/Len behave identically to the
// single-shard cache from the caller's point of view.
func TestShardedBasicOps(t *testing.T) {
	c := NewSharded(Config{Capacity: 64, Shards: 8})
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 32 {
		t.Fatalf("Len = %d, want 32", c.Len())
	}
	for i := 0; i < 32; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || v.(int) != i {
			t.Fatalf("Get(k%d) = %v, %v", i, v, ok)
		}
	}
	c.Put("k3", 333)
	if v, _ := c.Get("k3"); v.(int) != 333 {
		t.Fatalf("refresh lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 33 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardedEntryCap: the entry cap is split across shards and enforced
// per shard; the total never exceeds the configured capacity (each shard
// gets the ceiling of its share, so slack is at most shards-1).
func TestShardedEntryCap(t *testing.T) {
	c := NewSharded(Config{Capacity: 16, Shards: 4})
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > 16 {
		t.Fatalf("sharded cache holds %d entries, cap 16", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("200 puts into cap 16 must evict: %+v", st)
	}
}

// TestShardedCapacityExact: the entry cap splits exactly across shards —
// Stats reports the configured Capacity and residency never exceeds it
// (when Capacity >= shards, so no shard rounds to zero and leans on the
// newest-entry rule).
func TestShardedCapacityExact(t *testing.T) {
	c := NewSharded(Config{Capacity: 10, Shards: 8})
	if got := c.Stats().Capacity; got != 10 {
		t.Fatalf("split capacity sums to %d, want 10", got)
	}
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > 10 {
		t.Fatalf("resident %d entries, cap 10", n)
	}
}

// TestGetLayerAttribution: hits count against the stored entry's layer,
// misses against the caller-declared layer, and the aggregate counters
// total the layers.
func TestGetLayerAttribution(t *testing.T) {
	c := New(16)
	c.PutSized("seed", 1, LayerSeed, 10)
	c.GetLayer("seed", LayerSeed)
	c.GetLayer("seed", LayerTest) // hit: attributed to LayerSeed regardless
	c.GetLayer("absent-null", LayerNull)
	c.GetLayer("absent-test", LayerTest)
	st := c.Stats()
	if st.Layers[LayerSeed].Hits != 2 || st.Layers[LayerSeed].Misses != 0 {
		t.Fatalf("seed layer stats: %+v", st.Layers[LayerSeed])
	}
	if st.Layers[LayerNull].Misses != 1 || st.Layers[LayerTest].Misses != 1 {
		t.Fatalf("miss attribution: %+v", st.Layers)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("aggregate must total the layers: %+v", st)
	}
	if st.Layers[LayerSeed].Bytes != 10 {
		t.Fatalf("seed bytes: %+v", st)
	}
}

// TestLayerBudgetEvictsOwnLayerOnly: exceeding a per-layer budget sheds
// that layer's LRU entries and leaves other layers untouched.
func TestLayerBudgetEvictsOwnLayerOnly(t *testing.T) {
	var lb [NumLayers]int64
	lb[LayerSeed] = 100
	c := NewSharded(Config{Capacity: 100, LayerBudgets: lb})
	c.PutSized("t1", 1, LayerTest, 1000) // over no budget: LayerTest unbounded
	c.PutSized("s1", 1, LayerSeed, 60)
	c.PutSized("s2", 2, LayerSeed, 30)
	c.PutSized("s3", 3, LayerSeed, 30) // 120 > 100: s1 (layer LRU) must go
	if _, ok := c.Get("s1"); ok {
		t.Fatal("s1 should have been evicted by the seed-layer budget")
	}
	if _, ok := c.Get("t1"); !ok {
		t.Fatal("t1 (other layer) must survive a seed-layer eviction")
	}
	st := c.Stats()
	if st.Layers[LayerSeed].Bytes != 60 || st.Layers[LayerTest].Bytes != 1000 {
		t.Fatalf("layer bytes after eviction: %+v", st)
	}
	if st.Layers[LayerSeed].ByteBudget != 100 {
		t.Fatalf("seed layer budget not reported: %+v", st.Layers[LayerSeed])
	}
	// The newest entry of a layer is never dropped, even oversized.
	c.PutSized("s4", 4, LayerSeed, 500)
	if _, ok := c.Get("s4"); !ok {
		t.Fatal("oversized newest seed entry must still cache")
	}
	if st := c.Stats(); st.Layers[LayerSeed].Bytes != 500 {
		t.Fatalf("oversized entry accounting: %+v", st)
	}
}

// TestCrossLayerLRUExact: within one shard, the entry cap evicts the
// globally least-recently-used entry regardless of which layer it lives
// in — the per-layer lists plus recency stamps reproduce one exact LRU.
func TestCrossLayerLRUExact(t *testing.T) {
	c := New(3)
	c.PutSized("a", 1, LayerSelector, 0)
	c.PutSized("b", 2, LayerTest, 0)
	c.PutSized("c", 3, LayerSeed, 0)
	c.Get("a") // "b" is now globally oldest, in a different layer than "d"
	c.PutSized("d", 4, LayerNull, 0)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b was the global LRU and should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
}

// TestLayerChangeOnRefresh: re-Putting a key under a different layer
// moves its bytes and recency to the new layer.
func TestLayerChangeOnRefresh(t *testing.T) {
	c := New(10)
	c.PutSized("k", 1, LayerSelector, 100)
	c.PutSized("k", 2, LayerNull, 40)
	st := c.Stats()
	if st.Layers[LayerSelector].Bytes != 0 || st.Layers[LayerNull].Bytes != 40 {
		t.Fatalf("layer move accounting: %+v", st)
	}
	if v, ok := c.Get("k"); !ok || v.(int) != 2 {
		t.Fatalf("moved entry lost: %v %v", v, ok)
	}
	if st := c.Stats(); st.Layers[LayerNull].Hits != 1 {
		t.Fatalf("hit attribution after move: %+v", st.Layers)
	}
}

// TestShardedByteBudget: a layer's budget splits across shards; residency
// converges under the bound once entries are spread, and per-shard LRU
// eviction keeps every shard within its slice.
func TestShardedByteBudget(t *testing.T) {
	c := NewSharded(Config{Capacity: 1000, Shards: 4, LayerBudgets: [NumLayers]int64{LayerSeed: 800}})
	for i := 0; i < 100; i++ {
		c.PutSized(fmt.Sprintf("k%d", i), i, LayerSeed, 100)
	}
	st := c.Stats()
	if st.Layers[LayerSeed].ByteBudget != 800 {
		t.Fatalf("split layer budget sums to %d, want 800", st.Layers[LayerSeed].ByteBudget)
	}
	// Each shard holds ceil(800/4)=200 bytes → at most 2 entries; 4 shards
	// → at most 800 bytes total.
	if st.Bytes > 800 {
		t.Fatalf("resident %d bytes exceeds split budget 800", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("byte pressure must evict")
	}
}

// TestPurgeDropsNamedLayersOnly: Purge empties exactly the layers it is
// given — entries, bytes, map slots — on every shard, counts the drops
// in Purged and not in Evictions, leaves the other layers' entries,
// recency and hit/miss counters alone, and the cache keeps working
// (inserts, budgets, LRU) afterwards.
func TestPurgeDropsNamedLayersOnly(t *testing.T) {
	for _, shards := range []int{1, 8} {
		c := NewSharded(Config{Capacity: 400, Shards: shards})
		for i := 0; i < 40; i++ {
			for l := 0; l < NumLayers; l++ {
				c.PutSized(fmt.Sprintf("%s-%d", Layer(l), i), i, Layer(l), int64(10*(l+1)))
			}
		}
		c.GetLayer("null-3", LayerNull)
		c.GetLayer("absent", LayerSeed)
		before := c.Stats()

		c.Purge(LayerSelector, LayerTest, LayerSeed)
		st := c.Stats()
		if st.Layers[LayerSelector].Bytes != 0 || st.Layers[LayerTest].Bytes != 0 || st.Layers[LayerSeed].Bytes != 0 {
			t.Fatalf("shards=%d: purged layers still hold bytes: %+v", shards, st)
		}
		if st.Layers[LayerNull].Bytes != before.Layers[LayerNull].Bytes || st.Bytes != before.Layers[LayerNull].Bytes || st.Size != 40 || c.Len() != 40 {
			t.Fatalf("shards=%d: null layer disturbed: before %+v after %+v", shards, before, st)
		}
		if st.Purged != 120 || st.Evictions != before.Evictions {
			t.Fatalf("shards=%d: purged %d evictions %d -> %d, want 120 drops counted as purges only",
				shards, st.Purged, before.Evictions, st.Evictions)
		}
		if st.Hits != before.Hits || st.Misses != before.Misses {
			t.Fatalf("shards=%d: purge moved hit/miss counters: %+v -> %+v", shards, before, st)
		}
		for i := 0; i < 40; i++ {
			if v, ok := c.GetLayer(fmt.Sprintf("null-%d", i), LayerNull); !ok || v.(int) != i {
				t.Fatalf("shards=%d: null entry %d lost", shards, i)
			}
			for _, l := range []Layer{LayerSelector, LayerTest, LayerSeed} {
				if _, ok := c.GetLayer(fmt.Sprintf("%s-%d", l, i), l); ok {
					t.Fatalf("shards=%d: %s entry %d survived the purge", shards, l, i)
				}
			}
		}

		// A purged layer refills, and capacity eviction still finds the LRU
		// entry across the reset lists.
		for i := 0; i < 400; i++ {
			c.PutSized(fmt.Sprintf("refill-%d", i), i, LayerSeed, 8)
		}
		st = c.Stats()
		if st.Size > 400+shards || st.Layers[LayerSeed].Bytes == 0 || st.Evictions == before.Evictions || st.Purged != 120 {
			t.Fatalf("shards=%d: cache unhealthy after refill: %+v", shards, st)
		}
		c.Purge() // no layers named: nothing happens
		if again := c.Stats(); again.Size != st.Size || again.Purged != 120 {
			t.Fatalf("shards=%d: Purge() with no layers dropped entries: %+v", shards, again)
		}
	}
	var nilCache *Cache
	nilCache.Purge(LayerSelector) // the no-op cache stays a no-op
}

// TestConcurrentShardedBytesNeverNegative hammers PutSized/Get/Purge/Stats
// from many goroutines with mixed layers and sizes — including refreshes
// that change an entry's layer — and asserts no per-layer byte counter ever
// goes negative and the aggregate equals the layer sum. Run under -race
// this also exercises the per-shard locking. (Sizes are stored in the
// entry at insert time; eviction subtracts the stored value, so the
// counters cannot drift no matter how Put/evict interleave.)
func TestConcurrentShardedBytesNeverNegative(t *testing.T) {
	for _, shards := range []int{1, 8} {
		c := NewSharded(Config{Capacity: 64, Shards: shards,
			LayerBudgets: [NumLayers]int64{LayerSeed: 1024, LayerNull: 512}})
		var wg, readerWg sync.WaitGroup
		stop := make(chan struct{})
		// A stats reader runs concurrently, checking invariants mid-flight.
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				var sum int64
				for l := 0; l < NumLayers; l++ {
					if st.Layers[l].Bytes < 0 {
						t.Errorf("layer %d bytes negative: %+v", l, st)
						return
					}
					sum += st.Layers[l].Bytes
				}
				if st.Bytes != sum {
					t.Errorf("aggregate bytes %d != layer sum %d", st.Bytes, sum)
					return
				}
			}
		}()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 2000; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(96))
					layer := Layer(rng.Intn(NumLayers))
					switch rng.Intn(64) {
					case 0: // an epoch publish lands between the Puts and Gets
						c.Purge(LayerSelector, LayerTest, LayerSeed)
					case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16:
						c.GetLayer(key, layer)
					default:
						c.PutSized(key, i, layer, int64(rng.Intn(200)))
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		readerWg.Wait()
		st := c.Stats()
		for l := 0; l < NumLayers; l++ {
			if st.Layers[l].Bytes < 0 {
				t.Fatalf("shards=%d layer %d bytes negative after run: %+v", shards, l, st)
			}
		}
		if st.Bytes != st.Layers[LayerSelector].Bytes+st.Layers[LayerTest].Bytes+st.Layers[LayerSeed].Bytes+st.Layers[LayerNull].Bytes {
			t.Fatalf("shards=%d aggregate bytes mismatch: %+v", shards, st)
		}
	}
}

// BenchmarkCacheContention measures mixed Get/Put traffic from concurrent
// goroutines against the single-lock LRU and the sharded cache. The
// workload is the engine's serving shape: mostly hits on a hot keyset
// with a steady trickle of inserts. On multi-core hosts the shards'
// independent locks stop the goroutines from serializing; on a
// single-core host the two converge (there is no lock contention to
// remove).
func BenchmarkCacheContention(b *testing.B) {
	const keys = 4096
	run := func(b *testing.B, shards int) {
		c := NewSharded(Config{Capacity: keys, Shards: shards})
		for i := 0; i < keys; i++ {
			c.PutSized(fmt.Sprintf("k%d", i), i, LayerSelector, 64)
		}
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(1))
			i := 0
			for pb.Next() {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				if i%10 == 0 {
					c.PutSized(key, i, LayerSelector, 64)
				} else {
					c.Get(key)
				}
				i++
			}
		})
	}
	b.Run("lock1", func(b *testing.B) { run(b, 1) })
	b.Run("shards8", func(b *testing.B) { run(b, 8) })
}

package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// tracked is a Releaser that counts its releases.
type tracked struct {
	name     string
	released atomic.Int32
}

func (v *tracked) Release() { v.released.Add(1) }

// ownershipCheck records every value put into a cache and checks the
// release contract against the cache's contents: a resident value was
// never released, a dropped one exactly once.
type ownershipCheck struct {
	c    *Cache
	vals []*tracked
}

func (o *ownershipCheck) put(key string, layer Layer, bytes int64) *tracked {
	v := &tracked{name: key}
	o.vals = append(o.vals, v)
	o.c.PutSized(key, v, layer, bytes)
	return v
}

func (o *ownershipCheck) verify(t *testing.T, step string) {
	t.Helper()
	resident := make(map[*tracked]bool)
	for _, sh := range o.c.shards {
		sh.mu.Lock()
		for _, el := range sh.items {
			if v, ok := el.Value.(*entry).val.(*tracked); ok {
				resident[v] = true
			}
		}
		sh.mu.Unlock()
	}
	for _, v := range o.vals {
		want := int32(1)
		if resident[v] {
			want = 0
		}
		if got := v.released.Load(); got != want {
			t.Fatalf("%s: %s released %d times, want %d (resident %v)", step, v.name, got, want, resident[v])
		}
	}
}

// TestReleaseOwnership: every way the cache drops a value — entry-cap
// eviction, a layer's byte budget, replacement under the same key, Purge —
// releases it exactly once, and no resident value is ever released.
// Storing a key's current value again releases nothing, and the nil cache
// releases what it is given at once.
func TestReleaseOwnership(t *testing.T) {
	t.Run("entry cap", func(t *testing.T) {
		o := &ownershipCheck{c: NewSharded(Config{Capacity: 3})}
		for i := range 10 {
			o.put(fmt.Sprint("k", i), Layer(i%2), 1)
			o.verify(t, fmt.Sprint("put ", i))
		}
		if st := o.c.Stats(); st.Evictions != 7 {
			t.Fatalf("evictions = %d, want 7", st.Evictions)
		}
	})
	t.Run("byte budget", func(t *testing.T) {
		o := &ownershipCheck{c: budgeted(100, LayerSeed, 100)}
		keep := o.put("selector", LayerSelector, 1000) // another layer's bytes never shed
		for i := range 10 {
			o.put(fmt.Sprint("s", i), LayerSeed, 40)
			o.verify(t, fmt.Sprint("put ", i))
		}
		if keep.released.Load() != 0 {
			t.Fatal("a seed-layer budget released a selector-layer value")
		}
		// One value over the whole budget still caches, shedding the rest.
		o.put("huge", LayerSeed, 500)
		o.verify(t, "huge")
	})
	t.Run("replacement", func(t *testing.T) {
		o := &ownershipCheck{c: NewSharded(Config{Capacity: 8})}
		first := o.put("a", LayerSeed, 10)
		o.c.PutSized("a", first, LayerSeed, 10) // the same value again
		o.verify(t, "same value")
		o.put("a", LayerSeed, 10)
		o.verify(t, "replaced")
		o.put("a", LayerTest, 10) // a layer change replaces too
		o.verify(t, "replaced across layers")
		o.c.PutSized("a", 7, LayerTest, 1) // by a value with nothing to release
		o.verify(t, "replaced by a plain value")
	})
	t.Run("purge", func(t *testing.T) {
		o := &ownershipCheck{c: NewSharded(Config{Capacity: 64, Shards: 4})}
		for i := range 30 {
			o.put(fmt.Sprint("k", i), Layer(i%3), 1)
		}
		o.c.Purge(LayerSeed)
		o.verify(t, "purge seed")
		o.c.Purge(LayerSelector, LayerTest, LayerSeed)
		o.verify(t, "purge all")
		if st := o.c.Stats(); st.Size != 0 || st.Purged != 30 {
			t.Fatalf("after purging every layer: %+v", st)
		}
	})
	t.Run("nil cache", func(t *testing.T) {
		var c *Cache
		v := &tracked{name: "v"}
		c.PutSized("a", v, LayerSeed, 10)
		if got := v.released.Load(); got != 1 {
			t.Fatalf("the nil cache released its value %d times, want 1", got)
		}
		c.Purge(LayerSeed)
	})
}

// TestReleaseOwnershipConcurrent: writers, readers and purges racing on a
// sharded cache with tight budgets release every value they dropped
// exactly once and no resident one; a last Purge releases the rest.
func TestReleaseOwnershipConcurrent(t *testing.T) {
	cfg := Config{Capacity: 24, Shards: 4}
	cfg.LayerBudgets[LayerSeed] = 200
	o := &ownershipCheck{c: NewSharded(cfg)}
	const writers, puts = 4, 300
	vals := make([][]*tracked, writers)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range puts {
				key := fmt.Sprint("k", (w*puts+i)%50)
				v := &tracked{name: key}
				vals[w] = append(vals[w], v)
				o.c.PutSized(key, v, Layer(i%3), int64(10+i%40))
				if got, ok := o.c.GetLayer(fmt.Sprint("k", i%50), LayerSeed); ok {
					_ = got.(*tracked).name
				}
				if i%97 == 0 {
					o.c.Purge(LayerSeed)
				}
			}
		}()
	}
	wg.Wait()
	for _, vs := range vals {
		o.vals = append(o.vals, vs...)
	}
	o.verify(t, "after the race")
	o.c.Purge(LayerSelector, LayerTest, LayerSeed)
	o.verify(t, "after the last purge")
}

package qcache

import "testing"

// TestPutSizedAccounting: per-layer byte totals track inserts, refreshes,
// and evictions exactly.
func TestPutSizedAccounting(t *testing.T) {
	c := New(10)
	c.PutSized("a", 1, LayerSelector, 100)
	c.PutSized("b", 2, LayerTest, 7)
	c.PutSized("c", 3, LayerTest, 5)
	st := c.Stats()
	if st.Layers[LayerSelector].Bytes != 100 || st.Layers[LayerTest].Bytes != 12 || st.Bytes != 112 {
		t.Fatalf("accounting off: %+v", st)
	}
	// Refreshing a key replaces its hint — and may move it across layers.
	c.PutSized("a", 4, LayerTest, 40)
	st = c.Stats()
	if st.Layers[LayerSelector].Bytes != 0 || st.Layers[LayerTest].Bytes != 52 {
		t.Fatalf("refresh accounting off: %+v", st)
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 4 {
		t.Fatalf("refreshed value lost: %v %v", v, ok)
	}
}

// budgeted returns a single-shard cache of capacity entries whose layer
// is bounded to bytes.
func budgeted(capacity int, layer Layer, bytes int64) *Cache {
	cfg := Config{Capacity: capacity}
	cfg.LayerBudgets[layer] = bytes
	return NewSharded(cfg)
}

// TestByteBudgetEvicts: exceeding a layer's byte budget evicts from the
// LRU end until the layer fits, even with the entry cap far away.
func TestByteBudgetEvicts(t *testing.T) {
	c := budgeted(1000, LayerSelector, 100)
	c.PutSized("a", 1, LayerSelector, 60)
	c.PutSized("b", 2, LayerSelector, 30)
	c.PutSized("c", 3, LayerSelector, 30) // 120 > 100: "a" (LRU) must go
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by the byte budget")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b should have survived")
	}
	st := c.Stats()
	if st.Bytes != 60 || st.Evictions != 1 || st.Layers[LayerSelector].ByteBudget != 100 {
		t.Fatalf("post-eviction stats: %+v", st)
	}
	// Recency protects: touching "b" then overflowing evicts "c".
	c.Get("b")
	c.PutSized("d", 4, LayerSelector, 50)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c was the LRU entry and should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently used b must survive")
	}
}

// TestByteBudgetOversizedEntry: a single entry larger than its layer's
// whole budget still caches (evicting the rest of the layer) instead of
// thrashing.
func TestByteBudgetOversizedEntry(t *testing.T) {
	c := budgeted(10, LayerSeed, 100)
	c.PutSized("small", 1, LayerSeed, 10)
	c.PutSized("huge", 2, LayerSeed, 500)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry must still cache")
	}
	if _, ok := c.Get("small"); ok {
		t.Fatal("everything else should have been evicted")
	}
	if st := c.Stats(); st.Size != 1 || st.Bytes != 500 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEntryCapStillHolds: a layer's byte budget composes with, not
// replaces, the entry cap.
func TestEntryCapStillHolds(t *testing.T) {
	c := budgeted(2, LayerTest, 1<<30)
	c.PutSized("a", 1, LayerTest, 1)
	c.PutSized("b", 2, LayerTest, 1)
	c.PutSized("c", 3, LayerTest, 1)
	if c.Len() != 2 {
		t.Fatalf("entry cap ignored: %d entries", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by the entry cap")
	}
}

// TestPlainPutZeroBytes: the unsized Put never trips a byte budget.
func TestPlainPutZeroBytes(t *testing.T) {
	c := budgeted(10, LayerSelector, 5)
	c.Put("a", 1)
	c.Put("b", 2)
	if st := c.Stats(); st.Bytes != 0 || st.Size != 2 || st.Evictions != 0 {
		t.Fatalf("unsized puts must be byte-free: %+v", st)
	}
}

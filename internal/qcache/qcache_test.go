package qcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetAndLRUEviction(t *testing.T) {
	c := NewSharded(Config{Capacity: 2})
	c.PutSized("a", 1, LayerSelector, 0)
	c.PutSized("b", 2, LayerSelector, 0)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.PutSized("c", 3, LayerSelector, 0)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefreshesExistingKey(t *testing.T) {
	c := NewSharded(Config{Capacity: 2})
	c.PutSized("a", 1, LayerSelector, 0)
	c.PutSized("a", 10, LayerSelector, 0)
	if c.Stats().Size != 1 {
		t.Fatalf("Size = %d after double Put", c.Stats().Size)
	}
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Fatalf("refreshed value = %v", v)
	}
}

func TestHitMissCounters(t *testing.T) {
	c := NewSharded(Config{Capacity: 4})
	c.Get("nope")
	c.PutSized("a", 1, LayerSelector, 0)
	c.Get("a")
	c.Get("a")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	c.PutSized("a", 1, LayerSelector, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache reports non-zero state")
	}
	if NewSharded(Config{Capacity: 0}) != nil || NewSharded(Config{Capacity: -3}) != nil {
		t.Fatal("non-positive capacity should return the nil cache")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	a, ok := Key("sel", []uint32{3, 1, 2})
	if !ok {
		t.Fatal("key rejected")
	}
	b, _ := Key("sel", []uint32{2, 3, 1})
	if a != b {
		t.Fatalf("permutations differ: %q vs %q", a, b)
	}
	c, _ := Key("sel", []uint32{1, 2})
	if a == c {
		t.Fatal("different sets share a key")
	}
	d, _ := Key("other", []uint32{3, 1, 2})
	if a == d {
		t.Fatal("different prefixes share a key")
	}
	// IDs that would concatenate ambiguously stay distinct.
	e1, _ := Key("p", []uint32{1, 23})
	e2, _ := Key("p", []uint32{12, 3})
	if e1 == e2 {
		t.Fatal("separator failed to disambiguate IDs")
	}
	if _, ok := Key("sel", []uint32{1, 2, 2}); ok {
		t.Fatal("duplicate IDs must be rejected")
	}
	if empty, ok := Key("sel", nil); !ok || empty != "sel" {
		t.Fatalf("empty id key = %q, %v", empty, ok)
	}
}

func TestMultisetKey(t *testing.T) {
	// Permutations of one multiset share a key.
	a := MultisetKey("p", []uint32{3, 1, 2})
	b := MultisetKey("p", []uint32{2, 3, 1})
	if a != b {
		t.Fatalf("permutations key differently: %q vs %q", a, b)
	}
	// Duplicates are kept: a node listed twice is a different multiset.
	dup := MultisetKey("p", []uint32{1, 2, 2, 3})
	if dup == a {
		t.Fatal("duplicate node collapsed into the deduplicated key")
	}
	if dup != MultisetKey("p", []uint32{2, 1, 3, 2}) {
		t.Fatal("permuted duplicates key differently")
	}
	// Prefixes separate option spaces.
	if MultisetKey("x", []uint32{1}) == MultisetKey("y", []uint32{1}) {
		t.Fatal("prefix ignored")
	}
	// Concatenation ambiguity: {1, 23} vs {12, 3} must differ.
	if MultisetKey("p", []uint32{1, 23}) == MultisetKey("p", []uint32{12, 3}) {
		t.Fatal("adjacent IDs concatenate ambiguously")
	}
}

func TestHashIDs(t *testing.T) {
	a := HashIDs([]uint32{1, 2, 3})
	if a != HashIDs([]uint32{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	// Context hashes are order-sensitive: rank matters to callers.
	if a == HashIDs([]uint32{3, 2, 1}) {
		t.Fatal("hash ignored order")
	}
	if a == HashIDs([]uint32{1, 2}) {
		t.Fatal("hash ignored a trailing element")
	}
	if HashIDs(nil) == a {
		t.Fatal("empty hash collides with nonempty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewSharded(Config{Capacity: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w+i)%32)
				c.PutSized(key, i, LayerSelector, 0)
				c.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Size > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Stats().Size)
	}
}

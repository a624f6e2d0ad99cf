// Package qcache provides the engine-level query cache: a bounded,
// thread-safe LRU keyed by rendered query strings, memoizing the
// expensive stages of a notable-characteristics search so repeated and
// overlapping queries — the heavy-traffic case — skip recomputation.
//
// # Layers
//
// One cache holds entries from several pipeline stages, distinguished by
// a Layer tag for per-layer accounting and budgeting: ranked selector
// contexts (LayerSelector), finished comparison reports, one per (query,
// context, test options) (LayerTest), and single-seed PageRank vectors
// (LayerSeed). The cache
// itself treats layer values opaquely; layers exist so Stats can report
// residency and hit rates per stage and so the big layers (seed vectors
// are ~8 bytes per graph node each) can be bounded by bytes while the
// small ones are bounded by the entry cap alone.
//
// # Sharding
//
// The cache is optionally sharded shared-nothing: keys hash over 2^p
// shards, each with its own mutex, recency lists, and slice of every
// layer budget, so concurrent serving traffic from many goroutines does
// not serialize on one lock. Stats aggregates over the shards. Sharding
// trades exactness for concurrency: LRU order and budget enforcement are
// per shard, so a tight layer budget split over many shards can briefly
// exceed the global bound when an entry is larger than one shard's
// slice (each shard keeps its newest entry rather than thrashing). The
// default of one shard keeps the seed's exact single-LRU semantics;
// concurrent serving deployments opt in via the engine's CacheShards.
//
// Within one shard the recency order across layers is exact: each entry
// carries a monotone sequence number, and entry-cap eviction removes the
// globally least-recently-used entry regardless of layer (per-layer byte
// budgets evict within their own layer only).
//
// # Key scheme
//
// A cache key is built by Key: a selector/options prefix (anything that
// changes the cached value must be folded into it — selector name, walk
// budget, damping, seed, epoch; not k, one ranked entry serves every k up
// to its cut) followed by the query node IDs exactly as listed, order and
// duplicates included: a selector's score vector depends on the list in
// its last bits (RandomWalk folds its seeds in list order, ContextRW
// accumulates path shares in query order), so only the same list may
// share an entry. MultisetKey sorts the IDs, keeping duplicates, for the
// order-independent but multiplicity-sensitive comparison stage.
//
// # Ownership
//
// Values are opaque to the cache and treated as immutable once cached,
// with one exception: a value that implements Releaser owns something the
// collector does not manage (ppr's seed vectors live in off-heap
// mappings), and the cache calls its Release exactly once when it drops
// the value — evicted for the entry cap or a layer's byte budget, replaced
// by a PutSized of the same key, or dropped by Purge — and never while
// the value is resident. A PutSized hands the cache one reference: the
// nil cache, which keeps nothing, releases the value at once. Release
// runs after the shard's lock is let go, so it may be slow, and a value
// Get returned a moment earlier may be released while its reader still
// holds it: a Releaser that outlives its entry must count its own
// references (ppr.seedVec does).
//
// # Epoch keying
//
// One cache serves one engine, but that engine's graph is live: each
// effective mutation batch publishes a new epoch. Graph identity
// therefore rides in the keys — callers fold the epoch of the view a
// request pinned into every graph-derived prefix (the selector, test,
// and seed layers), so an entry computed against one epoch is never
// served at another, while re-running a query at an unchanged epoch
// still pure-hits. Epochs survive no-op batches and compaction (neither
// changes the readable graph), so warm entries survive them too. Once a
// new epoch is published no later request can address the old epoch's
// entries, so the engine drops those three layers at publish time
// (Purge) instead of letting dead entries crowd the LRU until capacity
// pressure reaches them; a request still pinned to the old epoch simply
// recomputes, and whatever it stores goes at the next publish.
package qcache

import (
	"container/list"
	"math"
	"slices"
	"strconv"
	"sync"
)

// Layer identifies which pipeline stage an entry belongs to, for
// per-layer accounting and budgeting. The cache itself treats layer
// values opaquely.
type Layer uint8

const (
	// LayerSelector holds ranked selector contexts — small entries, 16
	// bytes per context item whatever the graph size.
	LayerSelector Layer = iota
	// LayerTest holds finished comparison reports — every tested label's
	// record for one (query, context, test options), a few KB each.
	LayerTest
	// LayerSeed holds single-seed PageRank vectors — the per-seed store
	// behind interactive-refinement reuse; large entries, up to ~8 bytes
	// per graph node each (less when a solve stayed frontier-sparse).
	LayerSeed
	// LayerNull is written by nothing. It stays only because the
	// benchmark harness (bench/replay.go) names it when it reports
	// per-layer counters; the shard tests use it as a generic layer.
	LayerNull
	numLayers
)

// NumLayers is the number of distinct cache layers, sizing the exported
// per-layer arrays in Config and Stats.
const NumLayers = int(numLayers)

// LayerNames labels the layers in constant order, for rendering Stats
// tables.
var LayerNames = [NumLayers]string{
	LayerSelector: "selector",
	LayerTest:     "test",
	LayerSeed:     "seed",
	LayerNull:     "null",
}

// String implements fmt.Stringer.
func (l Layer) String() string {
	if int(l) < NumLayers {
		return LayerNames[l]
	}
	return "unknown"
}

// Config configures a cache. The zero value of every field selects a
// default; Capacity <= 0 still means "caching disabled" (NewSharded
// returns the nil no-op cache).
type Config struct {
	// Capacity bounds the total entry count across all shards and layers.
	// Sharding splits it exactly (shards sum to Capacity); the only slack
	// is the newest-entry rule — a shard whose slice rounds to zero still
	// keeps one entry rather than thrashing — so a Capacity below the
	// shard count can round up in practice.
	Capacity int
	// Shards is the shard count, rounded up to a power of two; 0 or 1
	// selects the single exact LRU.
	Shards int
	// LayerBudgets optionally bounds individual layers by the sum of their
	// size hints (0 = no byte bound). Each is split evenly across shards,
	// and exceeding one evicts least-recently-used entries of that layer
	// only.
	LayerBudgets [NumLayers]int64
}

// Releaser is a cached value with resources to free when the cache drops
// it (see "Ownership"). Its dynamic type must be comparable — a pointer,
// typically — so that storing a key's current value again, which
// releases nothing, can be told apart from a replacement.
type Releaser interface{ Release() }

// Cache is a bounded, sharded LRU map with hit/miss/eviction counters and
// per-layer byte accounting. A nil *Cache is a valid no-op cache: Get
// always misses and PutSized does nothing.
type Cache struct {
	shards []*shard
	mask   uint64
}

// shard is one shared-nothing slice of the cache: its own lock, items,
// per-layer recency lists, counters, and split of every budget.
type shard struct {
	mu        sync.Mutex
	capacity  int
	layerMax  [numLayers]int64 // 0 = no byte bound on the layer
	seq       uint64           // monotone recency stamp, shared by all layers
	ll        [numLayers]*list.List
	items     map[string]*list.Element
	bytes     [numLayers]int64
	hits      [numLayers]uint64
	misses    [numLayers]uint64
	evictions uint64
	purged    uint64
}

// entry is one cached key/value pair, stored in its layer's recency list.
// The size hint is stored with the entry, so eviction and refresh adjust
// the per-layer totals from the recorded value rather than recomputing a
// caller-side estimate — the invariant behind Stats bytes never going
// negative under concurrent PutSized/evict.
type entry struct {
	key   string
	val   any
	layer Layer
	bytes int64
	seq   uint64
}

// NewSharded returns a cache for cfg — the only constructor.
// cfg.Capacity <= 0 returns nil, the no-op cache.
func NewSharded(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		return nil
	}
	n := shardCount(cfg.Shards)
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		// The entry cap splits exactly — earlier shards take the division
		// remainder — so the shards sum to the configured Capacity.
		capacity := cfg.Capacity / n
		if i < cfg.Capacity%n {
			capacity++
		}
		sh := &shard{
			capacity: capacity,
			items:    make(map[string]*list.Element),
		}
		for l := range sh.ll {
			sh.ll[l] = list.New()
			sh.layerMax[l] = ceilDiv64(cfg.LayerBudgets[l], int64(n))
		}
		c.shards[i] = sh
	}
	return c
}

// shardCount rounds n up to a power of two in [1, 1024].
func shardCount(n int) int {
	if n <= 1 {
		return 1
	}
	if n > 1024 {
		n = 1024
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func ceilDiv64(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// fnvOffset64 and fnvPrime64 are the FNV-1a parameters shared by shard
// routing and the Hash* key helpers. (The stdlib hash/fnv allocates per
// hasher; these hand-rolled folds stay on the stack.)
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvByte folds one byte into an FNV-1a state.
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// shardFor picks the shard owning key by FNV-1a hash.
func (c *Cache) shardFor(key string) *shard {
	h := fnvOffset64
	for i := 0; i < len(key); i++ {
		h = fnvByte(h, key[i])
	}
	return c.shards[h&c.mask]
}

// Get returns the cached value for key and marks it most recently used.
// A miss is attributed to LayerSelector; callers that track per-layer hit
// rates use GetLayer.
func (c *Cache) Get(key string) (any, bool) {
	return c.GetLayer(key, LayerSelector)
}

// GetLayer is Get with an explicit layer to attribute a miss to (a hit is
// always attributed to the layer the entry was stored under). The layer
// does not affect lookup — keys are global — only the Stats counters.
func (c *Cache) GetLayer(key string, layer Layer) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses[layer]++
		return nil, false
	}
	e := el.Value.(*entry)
	sh.hits[e.layer]++
	sh.seq++
	e.seq = sh.seq
	sh.ll[e.layer].MoveToFront(el)
	return e.val, true
}

// PutSized stores val under key, attributing bytes to layer for the
// per-layer accounting, and evicts least-recently-used entries while the
// cache exceeds its entry cap or the layer's byte budget.
// The hint is the caller's estimate of the value's footprint; the cache
// never inspects values. Storing an existing key refreshes its value,
// hint, layer, and recency, and releases the value it replaces (see
// "Ownership"); the nil cache releases val at once.
func (c *Cache) PutSized(key string, val any, layer Layer, bytes int64) {
	if c == nil {
		if r, ok := val.(Releaser); ok {
			r.Release()
		}
		return
	}
	sh := c.shardFor(key)
	var dropped []Releaser
	defer releaseAll(&dropped)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.seq++
	if el, ok := sh.items[key]; ok {
		e := el.Value.(*entry)
		if r, ok := e.val.(Releaser); ok && any(r) != val {
			dropped = append(dropped, r)
		}
		sh.bytes[e.layer] -= e.bytes
		sh.bytes[layer] += bytes
		e.seq = sh.seq
		if e.layer == layer {
			e.val, e.bytes = val, bytes
			sh.ll[layer].MoveToFront(el)
		} else {
			// A layer change moves the entry between recency lists.
			sh.ll[e.layer].Remove(el)
			e.val, e.layer, e.bytes = val, layer, bytes
			sh.items[key] = sh.ll[layer].PushFront(e)
		}
		sh.evictOver(&dropped)
		return
	}
	sh.bytes[layer] += bytes
	sh.items[key] = sh.ll[layer].PushFront(&entry{key: key, val: val, layer: layer, bytes: bytes, seq: sh.seq})
	sh.evictOver(&dropped)
}

// releaseAll releases every dropped value. Deferred ahead of a shard's
// unlock, it runs after the lock is let go.
func releaseAll(dropped *[]Releaser) {
	for _, r := range *dropped {
		r.Release()
	}
}

// evictOver drops LRU entries until every bound holds: first each
// over-budget layer sheds its own least-recently-used entries, then the
// entry cap sheds the globally least-recently-used entry across layers
// (the minimum recency stamp over the list backs — exact LRU, since the
// globally oldest entry is necessarily the back of its layer's list). The
// newest entry of a list is never dropped: a single value larger than its
// layer's whole budget still caches (and evicts the rest of the layer)
// rather than thrashing on every PutSized. The dropped values are
// appended to *dropped for release once the lock is let go.
func (sh *shard) evictOver(dropped *[]Releaser) {
	for l := range sh.ll {
		for sh.layerMax[l] > 0 && sh.bytes[l] > sh.layerMax[l] && sh.ll[l].Len() > 1 {
			sh.remove(sh.ll[l].Back(), dropped)
		}
	}
	for len(sh.items) > 1 && len(sh.items) > sh.capacity {
		var oldest *list.Element
		oseq := uint64(math.MaxUint64)
		for l := range sh.ll {
			if b := sh.ll[l].Back(); b != nil {
				if e := b.Value.(*entry); e.seq < oseq {
					oseq, oldest = e.seq, b
				}
			}
		}
		sh.remove(oldest, dropped)
	}
}

// remove drops one entry, updating the map, its layer's bytes, and the
// eviction counter, and appends its value to *dropped if it is a
// Releaser.
func (sh *shard) remove(el *list.Element, dropped *[]Releaser) {
	e := el.Value.(*entry)
	sh.ll[e.layer].Remove(el)
	delete(sh.items, e.key)
	sh.bytes[e.layer] -= e.bytes
	sh.evictions++
	collect(dropped, e.val)
}

// collect appends val to *dropped if it is a Releaser.
func collect(dropped *[]Releaser, val any) {
	if r, ok := val.(Releaser); ok {
		*dropped = append(*dropped, r)
	}
}

// Purge drops every entry of the given layers — the engine's
// drop-at-publish for the epoch-keyed layers (see "Epoch keying") — and
// releases their values. The drops count in Stats.Purged, not Evictions,
// and leave hit/miss counters and every other layer untouched.
func (c *Cache) Purge(layers ...Layer) {
	if c == nil {
		return
	}
	for _, sh := range c.shards {
		var dropped []Releaser
		sh.mu.Lock()
		for _, l := range layers {
			for el := sh.ll[l].Front(); el != nil; el = el.Next() {
				e := el.Value.(*entry)
				delete(sh.items, e.key)
				collect(&dropped, e.val)
			}
			sh.purged += uint64(sh.ll[l].Len())
			sh.ll[l].Init()
			sh.bytes[l] = 0
		}
		sh.mu.Unlock()
		releaseAll(&dropped)
	}
}

// LayerStats is one layer's slice of a Stats snapshot.
type LayerStats struct {
	// Hits and Misses count GetLayer outcomes attributed to the layer.
	Hits, Misses uint64
	// Bytes sums the layer's resident size hints; ByteBudget is its
	// configured per-layer bound (0 = none).
	Bytes, ByteBudget int64
}

// Stats is a point-in-time snapshot of the cache counters, aggregated
// over all shards.
type Stats struct {
	// Hits and Misses count Get outcomes across every layer; Evictions
	// counts entries dropped to make room — the capacity-pressure signal —
	// and Purged those dropped wholesale by Purge.
	Hits, Misses, Evictions, Purged uint64
	// Size is the current entry count, Capacity the bound, Shards the
	// shared-nothing shard count (0 for the nil cache).
	Size, Capacity, Shards int
	// Bytes sums the resident size hints over every layer (per layer:
	// Layers[l].Bytes).
	Bytes int64
	// Layers breaks hits, misses, residency, and budget down by layer,
	// indexed by the Layer constants.
	Layers [NumLayers]LayerStats
}

// Stats returns the current counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var st Stats
	st.Shards = len(c.shards)
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Evictions += sh.evictions
		st.Purged += sh.purged
		st.Size += len(sh.items)
		st.Capacity += sh.capacity
		for l := 0; l < NumLayers; l++ {
			st.Layers[l].Hits += sh.hits[l]
			st.Layers[l].Misses += sh.misses[l]
			st.Layers[l].Bytes += sh.bytes[l]
			st.Layers[l].ByteBudget += sh.layerMax[l]
		}
		sh.mu.Unlock()
	}
	for l := 0; l < NumLayers; l++ {
		st.Hits += st.Layers[l].Hits
		st.Misses += st.Layers[l].Misses
		st.Bytes += st.Layers[l].Bytes
	}
	return st
}

// Key renders a query node list under an options prefix exactly as given:
// every permutation of a node set, and every repetition of a node, has its
// own key (see the package comment).
func Key(prefix string, ids []uint32) string {
	b := make([]byte, 0, len(prefix)+11*len(ids))
	b = append(b, prefix...)
	for _, id := range ids {
		b = append(b, '|')
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}

// MultisetKey is Key over ids sorted ascending, duplicates kept. The test
// layer's keys use it because distribution counting is order-independent
// yet multiplicity-sensitive: a node listed twice contributes its counts
// twice.
func MultisetKey(prefix string, ids []uint32) string {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return Key(prefix, sorted)
}

// HashIDs returns the 64-bit FNV-1a hash of ids in order — a compact
// stand-in for long ranked lists (a search's 100-node context) inside
// cache keys, where embedding every ID would dwarf the rest of the key.
func HashIDs(ids []uint32) uint64 {
	h := fnvOffset64
	for _, id := range ids {
		for shift := 0; shift < 32; shift += 8 {
			h = fnvByte(h, byte(id>>shift))
		}
	}
	return h
}

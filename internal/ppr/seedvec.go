// Single-seed vectors, and the per-seed fold: the package's one schedule.
//
// A solve is always one weighted walk from one seed, so a seed's vector
// depends only on the seed, the damping, the iteration count and the
// graph. Every sum is a fold of such independent solves in seed-list
// order, whether a vector came out of a workspace or out of
// Options.SeedCache, and each fold makes
// the same additions for every source (seedVec.foldInto,
// workspace.foldInto). Cache state therefore never changes a bit of the
// output, only how much of it is recomputed: with a cache, the expensive
// half of a query that overlaps an earlier one — re-running {A, B, C}
// after {A, B} — is served per seed (qcache.LayerSeed) and only the
// misses are solved; with a nil cache every seed is a miss.
//
// foldSeedSum, below, is the schedule of every sum: one workspace, each
// seed solved to completion when the batch reaches it, each query
// released as soon as its last seed folds.
//
// A seedVec keeps its solve's natural shape: a solve that stayed
// frontier-sparse keeps its support list and values (often far below
// 8·n bytes), a saturated solve the dense vector. Cached entries are
// byte-accounted against the seed layer's budget; keys fold damping,
// iterations, and the caller's CacheTag — the graph
// epoch when the cache serves a live-mutable graph, so entries solved
// against one epoch are never replayed against another (the same
// epoch-keying contract as every other qcache layer).
//
// # Ownership
//
// A dense seedVec lives in an off-heap mapping (offheap.Map): the seed
// layer is most of a large graph's live state, and on the Go heap it would
// count twice through GC pacing. The mapping is given back as soon as its
// last owner lets go, and the owners are counted. The fold that extracts a
// vector holds one reference, and PutSized hands the seed cache another.
// A fold that finds the vector in the cache takes its own with tryAcquire
// right after GetLayer; a failed acquire means the cache released the
// vector in between, and the seed is a miss like any other. A fold
// releases its reference after the seed's last fold, or when it is
// cancelled; the cache releases its own when it drops the entry (qcache's
// "Ownership"). The release that takes the count to zero gives the
// mapping back: it becomes one of at most maxSpares spares that the next
// dense vector reuses instead of mapping afresh, or it is unmapped. A
// finalizer is only the backstop for a cache that is dropped without a
// Purge. Sparse vectors stay on the heap and need no count.
package ppr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/kg"
	"repro/internal/offheap"
	"repro/internal/qcache"
)

// seedVec is one seed's materialized PageRank vector, in sparse
// (support + values) or dense form. Its fields never change once built;
// only refs moves (see "Ownership").
type seedVec struct {
	idx   []kg.NodeID // sparse support, nil when dense
	val   []float64   // sparse values aligned with idx
	dense []float64   // full vector, nil when sparse; a view of mem
	mem   []byte      // the mapping behind dense (maybe longer), nil when sparse
	refs  atomic.Int32
}

// seedMappedBytes is the bytes of every dense seed vector whose mapping
// is not yet given back, process-wide: cached vectors plus evicted ones a
// fold in flight still holds.
var seedMappedBytes atomic.Int64

// SeedMappedBytes reports the bytes of dense seed vectors mapped outside
// the Go heap, process-wide.
func SeedMappedBytes() int64 { return seedMappedBytes.Load() }

// spares holds up to maxSpares mappings that the last release of a dense
// vector gave back, for the next vector to reuse: a fresh mapping pays a
// page fault per page on its first write and a TLB shootdown at munmap,
// several times the copy itself on a large graph. A fresh mapping is an
// eighth longer than its vector, as a workspace is (getWorkspace), so a
// graph that gains a few nodes per ingest batch keeps reusing its spares;
// the headroom is never written, so it costs address space, not memory.
// Spares hold no vector, and seedMappedBytes does not count them.
var spares struct {
	sync.Mutex
	mems [][]byte
}

const maxSpares = 4

// fits reports whether a mapping of have bytes serves a vector of size
// bytes with no more headroom than a fresh mapping carries.
func fits(have, size int) bool { return size <= have && have <= size+size/8 }

// mapVec returns at least size bytes for a dense vector: a spare that
// fits, else a fresh mapping with headroom.
func mapVec(size int) []byte {
	spares.Lock()
	for i, mem := range spares.mems {
		if fits(len(mem), size) {
			spares.mems = slices.Delete(spares.mems, i, i+1)
			spares.Unlock()
			return mem
		}
	}
	spares.Unlock()
	return offheap.Map(size + size/8)
}

// unmapVec gives back mem, the mapping of a vector of size bytes: it
// stays as a spare while there is room and is unmapped otherwise. Spares
// that no longer fit a vector of that size are unmapped first: the graph
// outgrew them.
func unmapVec(mem []byte, size int) {
	var drop [][]byte
	spares.Lock()
	kept := spares.mems[:0]
	for _, m := range spares.mems {
		if fits(len(m), size) {
			kept = append(kept, m)
		} else {
			drop = append(drop, m)
		}
	}
	clear(spares.mems[len(kept):])
	spares.mems = kept
	if len(spares.mems) < maxSpares {
		spares.mems = append(spares.mems, mem)
	} else {
		drop = append(drop, mem)
	}
	spares.Unlock()
	for _, m := range drop {
		offheap.Unmap(m)
	}
}

// newDenseSeedVec copies p into a mapping, holding one reference for the
// caller.
func newDenseSeedVec(p []float64) *seedVec {
	v := &seedVec{mem: mapVec(8 * len(p))}
	v.dense = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v.mem))), len(p))
	copy(v.dense, p)
	v.refs.Store(1)
	seedMappedBytes.Add(8 * int64(len(p)))
	runtime.SetFinalizer(v, (*seedVec).unmap)
	return v
}

// acquire takes one more reference on a vector the caller already holds.
func (v *seedVec) acquire() {
	if v.mem != nil {
		v.refs.Add(1)
	}
}

// tryAcquire takes a reference unless the last one is already gone, in
// which case the mapping was given back and the vector must not be read.
func (v *seedVec) tryAcquire() bool {
	if v.mem == nil {
		return true
	}
	for {
		r := v.refs.Load()
		if r == 0 {
			return false
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference and gives the mapping back with the last. It
// implements qcache.Releaser, so the seed cache drops its own reference
// through it too.
func (v *seedVec) Release() {
	if v.mem == nil {
		return
	}
	switch r := v.refs.Add(-1); {
	case r == 0:
		runtime.SetFinalizer(v, nil)
		v.unmap()
	case r < 0:
		panic("ppr: seed vector released more often than acquired")
	}
}

// unmap gives the mapping back. It runs once: at the last Release, or as
// the finalizer of a vector whose owners were dropped without releasing
// it.
func (v *seedVec) unmap() {
	seedMappedBytes.Add(-8 * int64(len(v.dense)))
	unmapVec(v.mem, 8*len(v.dense))
}

// foldInto accumulates the vector into sum: touched-list order for sparse
// vectors, an ascending nonzero sweep for dense ones. Each slot receives
// one add per folded vector either way, so a sum's bits depend only on the
// order in which vectors are folded, never on their shape.
func (v *seedVec) foldInto(sum []float64) {
	if v.dense != nil {
		for i, x := range v.dense {
			if x != 0 {
				sum[i] += x
			}
		}
		runtime.KeepAlive(v) // the mapping outlives the loop
		return
	}
	for i, u := range v.idx {
		sum[u] += v.val[i]
	}
}

// footprint estimates the entry's resident bytes for the cache's byte
// accounting.
func (v *seedVec) footprint(keyLen int) int64 {
	if v.dense != nil {
		return 8*int64(len(v.dense)) + int64(keyLen) + 64
	}
	return 12*int64(len(v.idx)) + int64(keyLen) + 64
}

// foldInto accumulates the workspace's finished vector into sum with the
// additions seedVec.foldInto would make for the vector extractSeedVec cuts
// from it, so folding a solve with or without extracting it gives the same
// bits.
func (ws *workspace) foldInto(sum []float64) {
	if ws.dense {
		for i, x := range ws.p {
			if x != 0 {
				sum[i] += x
			}
		}
		return
	}
	for _, u := range ws.touched {
		sum[u] += ws.p[u]
	}
}

// extractSeedVec converts a finished workspace into a seedVec — copying
// the dense vector into a mapping when the run saturated, the sparse
// support otherwise — and resets the workspace for reuse. The caller
// holds the one reference. The dense vector is exactly n long; its
// mapping's slack is never written, so a cached entry holds no dead
// memory.
func extractSeedVec(ws *workspace) *seedVec {
	var v *seedVec
	if ws.dense {
		v = newDenseSeedVec(ws.p)
	} else {
		v = &seedVec{idx: append([]kg.NodeID(nil), ws.touched...)}
		v.val = make([]float64, len(v.idx))
		for i, u := range v.idx {
			v.val[i] = ws.p[u]
		}
	}
	ws.reset()
	return v
}

// seedKeyPrefix folds every option that can change a single-seed vector
// into the cache-key prefix, plus the caller's CacheTag (the graph epoch
// for mutable graphs). opt must already carry defaults.
func seedKeyPrefix(opt Options) string {
	return fmt.Sprintf("ppr|%s|d%v|i%d", opt.CacheTag, opt.Damping, opt.Iterations)
}

// seedKey is the cache key of one seed's vector under prefix.
func seedKey(prefix string, s kg.NodeID) string {
	return prefix + "|" + strconv.FormatUint(uint64(s), 10)
}

// foldSeedSum is the per-seed schedule behind PersonalizedSumCtx (a batch
// of one), PersonalizedSumMultiCtx and PersonalizedSumMultiStream: it calls ready(qi, sum) once per
// query, on the calling goroutine, with the query's seeds' vectors folded
// in seed-list order. Every distinct seed consults the seed cache first,
// in order of first appearance, holding a reference on each vector it
// finds until the seed's last fold (see "Ownership"), and the queries the
// cache serves whole release before any solve. The other queries follow
// in batch order, each released once its last seed folds; a miss is
// solved in one workspace when the batch first reaches it, replaying
// exactly its solo schedule. A
// solved vector becomes a seedVec only when something keeps it: the seed
// cache, or a later occurrence of the same seed in the batch. Otherwise it
// folds straight out of the workspace, which the next miss reuses. Live
// memory is therefore one workspace plus the kept vectors: O(n) per query
// with a nil SeedCache and no shared seed. opt must carry defaults.
//
// Cancellation never corrupts the cache: a solve cut short by ctx is
// neither stored nor folded, and neither its query nor any later one is
// released. The references the fold still holds are released on the way
// out.
func foldSeedSum(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, ready func(qi int, sum []float64)) {
	n := g.NumNodes()
	prefix := seedKeyPrefix(opt)
	left := make(map[kg.NodeID]int) // occurrences not yet folded
	kept := make(map[kg.NodeID]*seedVec)
	for _, q := range queries {
		for _, s := range q {
			if left[s]++; left[s] > 1 {
				continue
			}
			if v, hit := opt.SeedCache.GetLayer(seedKey(prefix, s), qcache.LayerSeed); hit && v.(*seedVec).tryAcquire() {
				kept[s] = v.(*seedVec)
			}
		}
	}
	order := make([]int, 0, len(queries)) // cache-whole queries first
	for _, whole := range []bool{true, false} {
		for qi, q := range queries {
			if whole != slices.ContainsFunc(q, func(s kg.NodeID) bool { return kept[s] == nil }) {
				order = append(order, qi)
			}
		}
	}
	var ws *workspace
	defer func() {
		for _, v := range kept {
			v.Release()
		}
		if ws != nil {
			ws.release()
		}
	}()
	for _, qi := range order {
		sum := make([]float64, n)
		for _, s := range queries[qi] {
			v := kept[s]
			if v == nil {
				if ws == nil {
					ws = getWorkspace(n)
				}
				personalizedInto(ctx, g, s, opt, ws)
				if ctx.Err() != nil {
					return
				}
				if opt.SeedCache == nil && left[s] == 1 {
					ws.foldInto(sum)
					ws.reset()
					continue
				}
				v = extractSeedVec(ws)
				key := seedKey(prefix, s)
				v.acquire() // the cache's; the nil cache releases it at once
				opt.SeedCache.PutSized(key, v, qcache.LayerSeed, v.footprint(len(key)))
				kept[s] = v
			}
			v.foldInto(sum)
			if left[s]--; left[s] == 0 {
				delete(kept, s)
				v.Release()
			}
		}
		ready(qi, sum)
	}
}

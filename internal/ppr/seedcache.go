// Per-seed PageRank vector caching: the store behind the
// interactive-refinement fast path.
//
// PersonalizedSumCtx is a fold of independent single-seed solves, so the
// expensive half of a query that overlaps an earlier one — re-running
// {A, B, C} after {A, B} — is redundant: every shared seed's vector is
// already known. When Options.SeedCache is set, PersonalizedSumCtx and
// PersonalizedSumMultiCtx consult it per seed (qcache.LayerSeed), solve only
// the misses, and fold cached and fresh vectors in seed-list order with
// the exact per-slot additions of the cacheless fold — so cache state
// never changes a bit of the output, only how much of it is recomputed.
//
// Cached vectors keep their solve's natural shape: a solve that stayed
// frontier-sparse stores its support list and values (often far below
// 8·n bytes), a saturated solve stores the dense vector. Entries are
// byte-accounted, so the seed layer's budget (the engine's
// SeedCacheBytes) bounds residency; keys fold damping, iterations, the
// uniform flag, and the caller's CacheTag — the graph epoch when the
// cache serves a live-mutable graph, so entries solved against one epoch
// are never replayed against another (the same epoch-keying contract as
// every other qcache layer).
package ppr

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// seedVec is one seed's materialized PageRank vector, in sparse
// (support + values) or dense form. Immutable once cached.
type seedVec struct {
	idx   []kg.NodeID // sparse support, nil when dense
	val   []float64   // sparse values aligned with idx
	dense []float64   // full vector, nil when sparse
}

// foldInto accumulates the vector into sum with exactly the additions of
// PersonalizedSumCtx's workspace fold: touched-list order for sparse
// vectors, an ascending nonzero sweep for dense ones. Each slot receives
// one add per seed either way, so the fold is bitwise identical to the
// cacheless path.
func (v *seedVec) foldInto(sum []float64) {
	if v.dense != nil {
		for i, x := range v.dense {
			if x != 0 {
				sum[i] += x
			}
		}
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

// extractSeedVec converts a finished single-seed workspace into a
// seedVec — stealing the dense vector when the run saturated, copying the
// sparse support otherwise — and resets the workspace for reuse.
func extractSeedVec(ws *workspace, n int) *seedVec {
	var v *seedVec
	if ws.dense {
		if len(ws.p) == n {
			// Steal the dense result and hand the workspace a fresh zero
			// vector, exactly as Personalized does.
			v = &seedVec{dense: ws.p}
			ws.p = make([]float64, n)
		} else {
			d := make([]float64, n)
			copy(d, ws.p[:n])
			v = &seedVec{dense: d}
		}
	} else {
		idx := append([]kg.NodeID(nil), ws.touched...)
		val := make([]float64, len(idx))
		for i, u := range idx {
			val[i] = ws.p[u]
		}
		v = &seedVec{idx: idx, val: val}
	}
	ws.reset()
	return v
}

// seedKeyPrefix folds every option that can change a single-seed vector
// into the cache-key prefix, plus the caller's CacheTag (the graph epoch
// for mutable graphs). opt must already carry defaults.
func seedKeyPrefix(opt Options) string {
	return fmt.Sprintf("ppr|%s|d%v|i%d|u%t", opt.CacheTag, opt.Damping, opt.Iterations, opt.Uniform)
}

// seedKey is the cache key of one seed's vector under prefix.
func seedKey(prefix string, s kg.NodeID) string {
	return prefix + "|" + strconv.FormatUint(uint64(s), 10)
}

// resolveSeedVecs returns one materialized single-seed vector per
// distinct seed: cache hits are served as stored, misses are solved in
// parallel blocks of Options.Parallelism workers (each solve replaying
// exactly its solo schedule) and stored. opt must carry defaults and a
// non-nil SeedCache.
//
// Cancellation never corrupts the cache: a block whose solves were cut
// short by ctx is discarded wholesale — the check runs after the block's
// goroutines have all returned, and a solve only stops early once ctx is
// done, so complete-looking workspaces past a cancelled check can simply
// be dropped without storing. The map then keeps nil entries for the
// abandoned seeds; callers bail on ctx.Err() before folding.
func resolveSeedVecs(ctx context.Context, g *kg.Graph, seeds []kg.NodeID, opt Options, budget int) map[kg.NodeID]*seedVec {
	prefix := seedKeyPrefix(opt)
	vecs := make(map[kg.NodeID]*seedVec, len(seeds))
	var missing []kg.NodeID
	for _, s := range seeds {
		if _, seen := vecs[s]; seen {
			continue
		}
		if v, hit := opt.SeedCache.GetLayer(seedKey(prefix, s), qcache.LayerSeed); hit {
			vecs[s] = v.(*seedVec)
			continue
		}
		vecs[s] = nil // claimed; filled by the solve below
		missing = append(missing, s)
	}
	if len(missing) == 0 {
		return vecs
	}
	n := g.NumNodes()
	workers := budget
	if workers > len(missing) {
		workers = len(missing)
	}
	// Cores left over by a small miss set go to the dense gather inside
	// each run, exactly as the cacheless pool splits its budget.
	opt.gatherWorkers = budget / workers
	wss := make([]*workspace, workers)
	for i := range wss {
		wss[i] = getWorkspace(n)
	}
	for base := 0; base < len(missing); base += workers {
		m := len(missing) - base
		if m > workers {
			m = workers
		}
		runSeedBlock(ctx, g, missing[base:base+m], opt, wss[:m])
		if ctx.Err() != nil {
			// The block may hold partial vectors: store nothing, leave the
			// block's seeds nil, and let the caller discard the whole run.
			for j := 0; j < m; j++ {
				wss[j].reset()
			}
			break
		}
		for j := 0; j < m; j++ {
			s := missing[base+j]
			v := extractSeedVec(wss[j], n)
			vecs[s] = v
			key := seedKey(prefix, s)
			opt.SeedCache.PutSized(key, v, qcache.LayerSeed, v.footprint(len(key)))
		}
	}
	for _, ws := range wss {
		ws.release()
	}
	return vecs
}

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
package ppr

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// seedVec is one seed's materialized PageRank vector, in sparse
// (support + values) or dense form. Immutable once built.
type seedVec struct {
	idx   []kg.NodeID // sparse support, nil when dense
	val   []float64   // sparse values aligned with idx
	dense []float64   // full vector, nil when sparse
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
// the dense vector when the run saturated, the sparse support otherwise —
// and resets the workspace for reuse. The dense copy is exactly n long:
// the workspace's vector carries growth headroom (getWorkspace) that a
// cached entry would hold dead for its whole life.
func extractSeedVec(ws *workspace) seedVec {
	var v seedVec
	if ws.dense {
		v.dense = make([]float64, len(ws.p))
		copy(v.dense, ws.p)
	} else {
		v.idx = append([]kg.NodeID(nil), ws.touched...)
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
// in order of first appearance, and the queries the cache serves whole
// release before any solve. The other queries follow in batch order, each
// released once its last seed folds; a miss is solved in one workspace
// when the batch first reaches it, replaying exactly its solo schedule. A
// solved vector becomes a seedVec only when something keeps it: the seed
// cache, or a later occurrence of the same seed in the batch. Otherwise it
// folds straight out of the workspace, which the next miss reuses. Live
// memory is therefore one workspace plus the kept vectors: O(n) per query
// with a nil SeedCache and no shared seed. opt must carry defaults.
//
// Cancellation never corrupts the cache: a solve cut short by ctx is
// neither stored nor folded, and neither its query nor any later one is
// released.
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
			if v, hit := opt.SeedCache.GetLayer(seedKey(prefix, s), qcache.LayerSeed); hit {
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
				solved := extractSeedVec(ws)
				v = &solved
				key := seedKey(prefix, s)
				opt.SeedCache.PutSized(key, v, qcache.LayerSeed, v.footprint(len(key)))
				kept[s] = v
			}
			v.foldInto(sum)
			if left[s]--; left[s] == 0 {
				delete(kept, s)
			}
		}
		ready(qi, sum)
	}
}

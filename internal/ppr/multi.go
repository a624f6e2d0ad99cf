// Batched multi-source PageRank: PersonalizedSumMultiCtx amortizes the cold
// cost of many queries against one graph.
//
// Two amortizations stack. First, seed-level deduplication: the paper's
// per-query score is the sum of single-seed PageRank vectors, so a batch
// whose queries overlap (nested eval sweeps, trending entities in a
// serving mix) needs each distinct seed solved once, not once per query.
// Second, the dense tails of the surviving solves run through the blocked
// multi-vector gather kernel (kg.TransitionCSR.GatherStepMulti), which
// walks the edge stream once per iteration for up to MaxGatherBlock
// vectors instead of once per vector — the kernel-level win grows with
// graph size, paying most on graphs whose transpose no longer fits in
// cache.
//
// Every per-seed solve follows the exact schedule of its solo run — the
// same sparse iterations, the same switch point, dense steps whose
// per-column arithmetic replicates the serial kernel — and each query's
// sum folds its seeds' vectors in seed-list order once every solve is
// done, so the batch output is bitwise identical to calling
// PersonalizedSumCtx per query.
//
// This is one of the package's two schedules. The other, foldSeedSum
// (seedvec.go), solves seed by seed and releases each query as soon as
// its last seed folds; it serves PersonalizedSumCtx and
// PersonalizedSumMultiStream, where the blocked kernel would barrier
// every release behind the whole batch's dense work.
package ppr

import (
	"context"
	"sort"
	"time"

	"repro/internal/kg"
	"repro/internal/qcache"
)

// PersonalizedSumMultiCtx computes PersonalizedSumCtx for every seed set
// in one batched pass and returns one summed vector per query, in order.
// Peak memory is O(unique seeds · n) for the per-seed result vectors plus
// O(MaxGatherBlock · n) for the active dense block.
//
// Solves check ctx between sweeps and the batch stops within one sweep of
// cancellation. A batch cut short returns nil vectors and stores nothing
// in the seed cache; callers must treat ctx.Err() != nil as "no result".
func PersonalizedSumMultiCtx(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options) [][]float64 {
	start := time.Now()
	out := make([][]float64, len(queries))
	if solves, index := solveMulti(ctx, g, queries, opt.withDefaults()); index != nil {
		for qi, q := range queries {
			out[qi] = make([]float64, g.NumNodes())
			for _, s := range q {
				solves[index[s]].foldInto(out[qi])
			}
		}
	}
	if opt.SolveObs != nil {
		opt.SolveObs.Observe(time.Since(start))
	}
	return out
}

// PersonalizedSumMultiStream computes the same sums as
// PersonalizedSumMultiCtx and invokes ready(qi, sum) exactly once per
// query, as soon as that query's last seed has folded: queries the seed
// cache serves whole first, before any solve, then the rest in batch
// order. ready is called synchronously from the solving goroutine, and
// the SolveObs observation leaves its time out; released vectors are
// bitwise identical to per-query PersonalizedSumCtx. On cancellation the
// stream stops within one sweep and queries not yet released never get a
// callback; the returned error is ctx.Err().
//
// The stream is foldSeedSum's schedule, not the blocked kernel's: each
// distinct seed is solved to completion when the batch first reaches it,
// so a release waits only for its own query's seeds, and without a seed
// cache the stream holds one workspace plus the vectors a later query
// shares.
func PersonalizedSumMultiStream(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, ready func(qi int, sum []float64)) error {
	var inReady time.Duration // the caller's work, not the solve's
	start := time.Now()
	foldSeedSum(ctx, g, queries, opt.withDefaults(), func(qi int, sum []float64) {
		readyStart := time.Now()
		ready(qi, sum)
		inReady += time.Since(readyStart)
	})
	if opt.SolveObs != nil {
		opt.SolveObs.Observe(time.Since(start) - inReady)
	}
	return ctx.Err()
}

// solveMulti returns the vector of every distinct seed of the batch,
// addressed through index: a seed-cache hit, or a miss solved as its
// sparse prefix followed by a blocked dense tail. Fresh vectors are stored
// in the seed cache once all of them are done. Under cancellation the
// index is nil and nothing is stored. opt must carry defaults.
func solveMulti(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options) ([]*seedVec, map[kg.NodeID]int) {
	n := g.NumNodes()
	tr := g.Transitions()
	prefix := seedKeyPrefix(opt)
	index := make(map[kg.NodeID]int)
	var solves []*seedVec
	var misses []kg.NodeID // in first-appearance order

	// ws is the scratch workspace of the next solve; a solve parked at its
	// dense switch point keeps its own until its block packs it. Every
	// return hands the outstanding workspaces back to the pool.
	var ws *workspace
	var pending []pendingSolve
	defer func() {
		if ws != nil {
			ws.release()
		}
		for _, ps := range pending {
			if ps.ws != nil {
				ps.ws.release()
			}
		}
	}()

	// Phase one: every distinct seed consults the cache in order of first
	// appearance; a miss runs its frontier-sparse prefix exactly as its
	// solo run would, finishing here if its frontier never saturates and
	// parking at its dense switch point otherwise.
	for _, q := range queries {
		for _, s := range q {
			if _, seen := index[s]; seen {
				continue
			}
			i := len(solves)
			index[s] = i
			v, _ := opt.SeedCache.GetLayer(seedKey(prefix, s), qcache.LayerSeed)
			sv, _ := v.(*seedVec)
			solves = append(solves, sv)
			if sv != nil {
				continue
			}
			misses = append(misses, s)
			if ws == nil {
				ws = getWorkspace(n)
			}
			ws.init(s)
			it := ws.sparsePhase(ctx, g, tr, opt, opt.Iterations)
			if ctx.Err() != nil {
				return nil, nil
			}
			if it < opt.Iterations {
				pending = append(pending, pendingSolve{ws: ws, rem: opt.Iterations - it, idx: i})
				ws = nil
			} else {
				v := extractSeedVec(ws)
				solves[i] = &v
			}
		}
	}

	// Phase two: the dense tails, MaxGatherBlock columns at a time.
	// Sorting by remaining iterations groups columns that retire together,
	// so block repacks are rare.
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].rem > pending[b].rem })
	for base := 0; base < len(pending); base += kg.MaxGatherBlock {
		solveDenseBlock(ctx, tr, pending[base:min(base+kg.MaxGatherBlock, len(pending))], opt, n, solves)
		if ctx.Err() != nil {
			return nil, nil
		}
	}

	for _, s := range misses {
		key, v := seedKey(prefix, s), solves[index[s]]
		opt.SeedCache.PutSized(key, v, qcache.LayerSeed, v.footprint(len(key)))
	}
	return solves, index
}

// pendingSolve is one unique seed parked at its dense switch point.
type pendingSolve struct {
	ws  *workspace
	rem int // dense iterations remaining
	idx int // unique-seed index, addressing solves
}

// denseCol tracks one active column of a dense block.
type denseCol struct {
	rem  int
	idx  int       // unique-seed index
	seed kg.NodeID // the column's seed, where its restart mass lands
}

// solveDenseBlock runs the remaining dense iterations of up to
// MaxGatherBlock single-seed solves as blocked multi-vector steps. Each
// iteration is one gather over the shared edge stream plus a per-column
// teleport; a column retires when its iterations are done. Retiring
// repacks the block to the narrower stride, preserving column order, and
// stores the finished seed's vector in solves. The block's workspaces go
// back to the pool once their columns are packed (blk's ws fields are
// nilled). Cancellation is checked between gathers; abandoned columns
// simply never retire.
func solveDenseBlock(ctx context.Context, tr *kg.TransitionCSR, blk []pendingSolve, opt Options, n int, solves []*seedVec) {
	b := len(blk)
	pm := make([]float64, n*b)
	nextM := make([]float64, n*b)
	dangling := make([]float64, kg.MaxGatherBlock)
	cols := make([]denseCol, b)
	for j, ps := range blk {
		ws := ps.ws
		// ws.p is zero outside its touched support, so a dense read is the
		// full vector regardless of how far the sparse phase got.
		for x := 0; x < n; x++ {
			pm[x*b+j] = ws.p[x]
		}
		cols[j] = denseCol{rem: ps.rem, idx: ps.idx, seed: ws.seed}
		blk[j].ws = nil
		ws.release()
	}
	c := opt.Damping
	for b > 0 {
		if ctx.Err() != nil {
			return
		}
		tr.GatherStepMulti(nextM[:n*b], pm[:n*b], c, b, dangling)
		retired := false
		for j := range cols {
			// Teleport: the full restart mass lands on the column's seed.
			nextM[int(cols[j].seed)*b+j] += (1 - c) + c*dangling[j]
			cols[j].rem--
			if cols[j].rem == 0 {
				retired = true
			}
		}
		pm, nextM = nextM, pm
		if !retired {
			continue
		}
		// Extract finished columns and repack the survivors to the
		// narrower stride, in place and in order, while the surviving
		// columns keep iterating.
		kept := cols[:0]
		keptJ := make([]int, 0, b)
		for j := range cols {
			if cols[j].rem == 0 {
				v := make([]float64, n)
				for x := 0; x < n; x++ {
					v[x] = pm[x*b+j]
				}
				solves[cols[j].idx] = &seedVec{dense: v}
			} else {
				kept = append(kept, cols[j])
				keptJ = append(keptJ, j)
			}
		}
		nb := len(kept)
		if nb > 0 && nb < b {
			for x := 0; x < n; x++ {
				for newj, oldj := range keptJ {
					pm[x*nb+newj] = pm[x*b+oldj]
				}
			}
		}
		cols = kept
		b = nb
	}
}

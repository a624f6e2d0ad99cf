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
// per-column arithmetic replicates the serial kernel — and per-query sums
// fold in seed-list order exactly as PersonalizedSumCtx does, so the batch
// output is bitwise identical to calling PersonalizedSumCtx per query.
//
// PersonalizedSumMultiStream exposes the same solve as a stream: each
// query's summed vector is released through a callback the moment its
// last seed resolves — cache hits before any solving, sparse-only solves
// during phase one, saturated solves as their dense column retires —
// instead of barriering the whole batch. The solve schedule is untouched;
// streaming only moves the fold earlier, so every released vector carries
// exactly the bits the barriered call would return.
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
// cancellation. Once ctx is done the returned slice is partial —
// unresolved queries hold nil — and nothing partial enters the seed
// cache; callers must treat ctx.Err() != nil as "no result".
func PersonalizedSumMultiCtx(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options) [][]float64 {
	out := make([][]float64, len(queries))
	start := time.Now()
	personalizedSumMultiStream(ctx, g, queries, opt, false, func(qi int, sum []float64) {
		out[qi] = sum
	})
	if opt.SolveObs != nil {
		opt.SolveObs.Observe(time.Since(start))
	}
	return out
}

// PersonalizedSumMultiStream runs the batched multi-source solve and
// invokes ready(qi, sum) exactly once per query, as soon as that query's
// last seed has resolved — before other queries' solves complete. ready
// is called synchronously from the solving goroutine (offload expensive
// consumers); released vectors are bitwise identical to per-query
// PersonalizedSumCtx, whatever the release order. On cancellation the stream
// stops within one sweep and queries not yet released never get a
// callback; the returned error is ctx.Err().
//
// The stream runs each deduplicated seed's solve to completion in
// first-appearance order instead of handing dense tails to the blocked
// multi-vector kernel: the kernel amortizes the edge stream across
// columns but retires them together, which would barrier every release
// behind the whole batch's dense work — the opposite of streaming. The
// per-seed schedule is exactly PersonalizedSumCtx's, so the bits are
// unchanged; only the batch's bandwidth amortization is traded for
// release granularity. Barriered callers (PersonalizedSumMultiCtx) keep
// the kernel.
func PersonalizedSumMultiStream(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, ready func(qi int, sum []float64)) error {
	start := time.Now()
	personalizedSumMultiStream(ctx, g, queries, opt, true, ready)
	if opt.SolveObs != nil {
		opt.SolveObs.Observe(time.Since(start))
	}
	return ctx.Err()
}

// personalizedSumMultiStream is the shared engine behind the barriered
// and streaming multi-source entry points: seed dedup, cache consult,
// release bookkeeping, and the store phase are common; streaming selects
// the per-seed completion schedule over the blocked dense kernel.
func personalizedSumMultiStream(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, streaming bool, ready func(qi int, sum []float64)) {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 {
		for i := range queries {
			ready(i, make([]float64, 0))
		}
		return
	}
	tr := g.Transitions()

	// Unique seeds across the batch, in first-appearance order.
	index := make(map[kg.NodeID]int)
	var uniq []kg.NodeID
	for _, q := range queries {
		for _, s := range q {
			if _, ok := index[s]; !ok {
				index[s] = len(uniq)
				uniq = append(uniq, s)
			}
		}
	}

	// Release bookkeeping: which queries need which unique seeds, and how
	// many of each query's seeds are still unsolved. seedQueries is
	// deduplicated per query (a duplicated seed must decrement its query
	// once, not twice), via a per-query stamp over the unique-seed index.
	solves := make([]*seedVec, len(uniq))
	seedQueries := make([][]int, len(uniq))
	remaining := make([]int, len(queries))
	stamp := make([]int, len(uniq))
	for i := range stamp {
		stamp[i] = -1
	}
	for qi, q := range queries {
		for _, s := range q {
			i := index[s]
			if stamp[i] == qi {
				continue
			}
			stamp[i] = qi
			seedQueries[i] = append(seedQueries[i], qi)
			remaining[qi]++
		}
	}
	// foldAndEmit materializes one query's sum with PersonalizedSumCtx's
	// seed-list-order fold, so sums carry the same bits whenever they are
	// released.
	foldAndEmit := func(qi int) {
		sum := make([]float64, n)
		for _, s := range queries[qi] {
			solves[index[s]].foldInto(sum)
		}
		ready(qi, sum)
	}
	// resolve records seed i's vector and releases every query whose last
	// unsolved seed it was.
	resolve := func(i int, v *seedVec) {
		solves[i] = v
		for _, qi := range seedQueries[i] {
			remaining[qi]--
			if remaining[qi] == 0 {
				foldAndEmit(qi)
			}
		}
	}

	// Queries with no seeds release immediately (a zero vector).
	for qi := range queries {
		if remaining[qi] == 0 {
			foldAndEmit(qi)
		}
	}
	// Seed-cache consult: unique seeds with a cached vector resolve now,
	// so queries fully served by the cache release before any solving
	// starts — the streaming fast path for warm overlap. The rest (all of
	// them, with no cache) enter the solve.
	prefix := seedKeyPrefix(opt)
	toSolve := make([]int, 0, len(uniq))
	for i, s := range uniq {
		if v, hit := opt.SeedCache.GetLayer(seedKey(prefix, s), qcache.LayerSeed); hit {
			resolve(i, v.(*seedVec))
			continue
		}
		toSolve = append(toSolve, i)
	}
	if len(toSolve) == 0 {
		return
	}

	// ws is the scratch workspace of every solve that finishes outside the
	// blocked kernel; a solve parked at its dense switch point takes it
	// along until its dense tail runs. Every abandonment path must hand the
	// outstanding workspaces back to the pool; the blocked kernel nils the
	// ones it absorbs.
	ws := getWorkspace(n)
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

	if streaming {
		// Streaming schedule: run each seed's full solve (sparse prefix +
		// its own dense tail — PersonalizedSumCtx's exact schedule) in
		// first-appearance order, releasing dependent queries the moment
		// each completes. The blocked kernel below would retire all
		// columns together and barrier every release behind the batch's
		// whole dense phase.
		for _, i := range toSolve {
			if ctx.Err() != nil {
				return
			}
			personalizedInto(ctx, g, uniq[i], opt, ws)
			if ctx.Err() != nil {
				return
			}
			v := extractSeedVec(ws, n)
			resolve(i, &v)
		}
		storeSolvedSeeds(toSolve, solves, uniq, opt, prefix)
		return
	}

	// Phase one: each solved seed's frontier-sparse prefix, exactly as its
	// solo run would execute it. Solves whose frontier never saturates
	// finish — and release their queries — here; the rest park at their
	// dense switch point.
	for _, i := range toSolve {
		if ctx.Err() != nil {
			return
		}
		if ws == nil {
			ws = getWorkspace(n)
		}
		ws.init(g, uniq[i])
		it := ws.sparsePhase(ctx, g, tr, opt, opt.Iterations)
		if ctx.Err() != nil {
			return
		}
		if it < opt.Iterations {
			pending = append(pending, pendingSolve{ws: ws, rem: opt.Iterations - it, idx: i})
			ws = nil
		} else {
			v := extractSeedVec(ws, n)
			resolve(i, &v)
		}
	}

	// Phase two: the dense tails. On graphs whose transpose stream dwarfs
	// the cache the blocked multi-vector kernel walks it once per
	// iteration for a whole block; small cache-resident graphs skip the
	// blocked layout's packing and extra indexing and finish each solve
	// with plain serial dense steps. Both paths produce identical bits —
	// the dispatch is purely a performance choice.
	if int64(g.NumEdges()) >= multiDenseMinEdges && len(pending) > 1 {
		// Sorting by remaining iterations groups columns that retire
		// together, so block repacks are rare.
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].rem > pending[b].rem })
		for base := 0; base < len(pending); base += kg.MaxGatherBlock {
			end := min(base+kg.MaxGatherBlock, len(pending))
			solveDenseBlock(ctx, tr, pending[base:end], opt, n, resolve)
			if ctx.Err() != nil {
				return
			}
		}
	} else {
		for _, ps := range pending {
			for it := 0; it < ps.rem; it++ {
				if ctx.Err() != nil {
					return
				}
				ps.ws.denseStep(tr, opt)
			}
			v := extractSeedVec(ps.ws, n)
			resolve(ps.idx, &v)
		}
	}

	storeSolvedSeeds(toSolve, solves, uniq, opt, prefix)
}

// storeSolvedSeeds hands every freshly solved vector to the seed cache, so
// the next overlapping batch or refinement hits. Callers only reach it
// with a live ctx — the solve loops bail out first under cancellation, so
// only complete vectors are ever stored. A nil SeedCache stores nothing.
func storeSolvedSeeds(toSolve []int, solves []*seedVec, uniq []kg.NodeID, opt Options, prefix string) {
	for _, i := range toSolve {
		key := seedKey(prefix, uniq[i])
		opt.SeedCache.PutSized(key, solves[i], qcache.LayerSeed, solves[i].footprint(len(key)))
	}
}

// multiDenseMinEdges is the edge count below which the batched dense
// phase runs per-seed serial solves instead of the blocked kernel: a
// cache-resident transpose re-streams for free, so the blocked layout's
// packing and wider indexing only add work. A variable so tests can force
// the kernel path on small graphs.
var multiDenseMinEdges int64 = 1 << 19

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
// hands the finished seed's vector to onRetire. The block's workspaces go
// back to the pool once their columns are packed (blk's ws fields are
// nilled). Cancellation is checked between gathers; abandoned columns
// simply never retire.
func solveDenseBlock(ctx context.Context, tr *kg.TransitionCSR, blk []pendingSolve, opt Options, n int, onRetire func(idx int, v *seedVec)) {
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
		// narrower stride, in place and in order. Each extracted seed
		// resolves immediately — queries waiting only on it release here,
		// mid-block, while the surviving columns keep iterating.
		kept := cols[:0]
		keptJ := make([]int, 0, b)
		for j := range cols {
			if cols[j].rem == 0 {
				v := make([]float64, n)
				for x := 0; x < n; x++ {
					v[x] = pm[x*b+j]
				}
				onRetire(cols[j].idx, &seedVec{dense: v})
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

// Multi-source PageRank: many queries' sums in one call, through the
// per-seed fold (foldSeedSum, seedvec.go).
//
// The paper's per-query score is the sum of single-seed PageRank vectors,
// so a batch whose queries overlap (nested eval sweeps, trending entities
// in a serving mix) needs each distinct seed solved once, not once per
// query. The fold consults the seed cache for every distinct seed, solves
// each miss to completion when the batch first reaches it, and folds every
// query's seeds in seed-list order, so each sum is bitwise identical to
// calling PersonalizedSumCtx per query. The barriered batch and the stream
// differ only in when a sum reaches the caller.
package ppr

import (
	"context"
	"time"

	"repro/internal/kg"
)

// PersonalizedSumMultiCtx computes PersonalizedSumCtx for every seed set
// in one pass of the per-seed fold — PersonalizedSumMultiStream with a
// barrier — and returns one summed vector per query, in order, making one
// SolveObs observation. Without a seed cache, peak memory is one
// workspace, the returned sums, and the vectors of seeds a later query
// shares.
//
// Solves check ctx between sweeps and the batch stops within one sweep of
// cancellation. A batch cut short returns all-nil rows; callers must treat
// ctx.Err() != nil as "no result". Seeds solved before the cut stay in the
// seed cache: their vectors are complete.
func PersonalizedSumMultiCtx(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options) [][]float64 {
	out := make([][]float64, len(queries))
	released := 0
	// The returned error is ctx.Err(); a cut shows as an unreleased query.
	_ = PersonalizedSumMultiStream(ctx, g, queries, opt, func(qi int, sum []float64) {
		out[qi] = sum
		released++
	})
	if released < len(queries) {
		clear(out)
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

package ppr

import (
	"context"
	"runtime"

	"repro/internal/kg"
)

// refPersonalizedSum is the workspace fold PersonalizedSumCtx ran without
// a seed cache before every sum went through seedVecs, kept verbatim as
// the bitwise reference for that path: every seed (duplicates included)
// solved in blocks of workers and folded straight out of its workspace in
// seed-list order.
func refPersonalizedSum(g *kg.Graph, seeds []kg.NodeID, opt Options) []float64 {
	ctx := context.Background()
	opt = opt.withDefaults()
	n := g.NumNodes()
	sum := make([]float64, n)
	if n == 0 || len(seeds) == 0 {
		return sum
	}
	budget := opt.Parallelism
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers := budget
	if workers > len(seeds) {
		workers = len(seeds)
	}
	wss := make([]*workspace, workers)
	for i := range wss {
		wss[i] = getWorkspace(n)
	}
	for base := 0; base < len(seeds) && ctx.Err() == nil; base += workers {
		m := len(seeds) - base
		if m > workers {
			m = workers
		}
		runSeedBlock(ctx, g, seeds[base:base+m], opt, wss[:m])
		for j := 0; j < m; j++ {
			ws := wss[j]
			if ws.dense {
				for i, x := range ws.p[:n] {
					if x != 0 {
						sum[i] += x
					}
				}
			} else {
				for _, u := range ws.touched {
					sum[u] += ws.p[u]
				}
			}
			ws.reset()
		}
	}
	for _, ws := range wss {
		ws.release()
	}
	return sum
}

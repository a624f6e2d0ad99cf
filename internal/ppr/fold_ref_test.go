package ppr

import (
	"context"
	"sync"

	"repro/internal/kg"
)

// refWorkers is the reference fold's fan-out: solves run in blocks of
// four goroutines, the way the per-seed pool once ran them.
const refWorkers = 4

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
	workers := refWorkers
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
		refRunSeedBlock(ctx, g, seeds[base:base+m], opt, wss[:m])
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

// refRunSeedBlock solves one single-seed run per seed concurrently, each
// into its own workspace.
func refRunSeedBlock(ctx context.Context, g *kg.Graph, seeds []kg.NodeID, opt Options, wss []*workspace) {
	var wg sync.WaitGroup
	wg.Add(len(seeds))
	for j := range seeds {
		go func(j int) {
			defer wg.Done()
			personalizedInto(ctx, g, seeds[j], opt, wss[j])
		}(j)
	}
	wg.Wait()
}

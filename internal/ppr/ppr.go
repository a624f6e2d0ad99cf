// Package ppr implements Personalized PageRank over a knowledge graph with
// the informativeness-weighted transition matrix of Section 3.1.
//
// Following Eq. 1, the walker leaves node j along edge (j, i) with
// probability proportional to the weight of the edge's label,
// w(l) = 1 − |E_l|/|E|: the rarer the label, the more informative, the more
// likely the step. The PageRank vector solves (Eq. 2)
//
//	p = c·Ã·p + (1 − c)·v
//
// by power iteration, where Ã is the column-normalized transposed weighted
// adjacency, c the damping factor, and v the personalization vector.
//
// This is the paper's RandomWalk baseline for context selection: one full
// PageRank per query node (v = e_n for each n ∈ Q individually), summed,
// then the top-k nodes excluding the query form the context. That is the
// only solve the package runs: every PageRank is one weighted walk from
// one seed, whose teleport puts the whole restart mass back on the seed.
// Sums, batches and streams are folds of such single-seed vectors; there
// is no multi-seed personalization and no uniform (unweighted) walk.
//
// # Implementation
//
// Real knowledge graphs are sparse with heavy-tailed degrees, so for the
// first iterations the walk touches only the seed's neighbourhood — a
// tiny fraction of V. The power iteration therefore starts by tracking a
// sparse frontier (the touched-node list of the current vector) instead
// of scanning all n nodes, and switches one-way to flat dense sweeps
// (kg.TransitionCSR.GatherStep) once the frontier saturates past
// NumNodes/denseSwitchDivisor (see that constant for the crossover
// rationale), where frontier bookkeeping costs more than it saves. The
// saturated gather walks the transpose's rows, which are stored in
// ascending in-degree order and handled one run of equal in-degree at a
// time, and it reads and writes vectors in that row order: the solve
// permutes its vector into row order once at the switch and back to node
// order once when its loop ends, so nothing outside the solve sees row
// order. Every step of a solve runs on the calling goroutine: a sum
// solves its seeds one after another, never a split of one step, and the
// concurrency lives above the package, one request per goroutine. The
// dense gather reads per-edge transition probabilities precomputed in the
// transpose of kg.TransitionCSR; the sparse sweep forms each edge's
// w(l)·(1/wdeg) from the label weight and the matrix's per-node
// normalizer, the same product the transpose stores. The teleport is one
// add at the seed. Scratch vectors are recycled through a sync.Pool and
// cleared sparsely, so a steady-state solve allocates nothing per
// iteration.
//
// A PageRank sum is a fold of single-seed vectors: every distinct seed is
// solved once or served from Options.SeedCache, and the vectors are folded
// into the sum in seed-list order, so results are bitwise identical for
// every cache state. The cache is what makes a query overlapping an
// earlier one — interactive refinement, the add-one-entity/re-search loop
// — solve only its new seeds.
//
// One schedule produces every sum: the per-seed fold (foldSeedSum,
// seedvec.go) behind PersonalizedSumCtx, PersonalizedSumMultiCtx and
// PersonalizedSumMultiStream. It solves each seed to completion when the
// batch first reaches it and folds it before the next runs; a query is
// complete as its last seed folds. Every request reaches it through
// PersonalizedSumMultiStream (ctxsel.RandomWalk).
package ppr

import (
	"context"
	"sync"
	"time"

	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Options configures a PageRank computation. The zero value selects the
// paper's defaults.
type Options struct {
	// Damping is the restart parameter c in Eq. 2. The paper sets 0.8 in
	// line with previous work (its experiments also mention 0.2 for the
	// baseline; both are reproducible by setting this field). Default 0.8.
	Damping float64
	// Iterations of power iteration. The paper uses 10. Default 10.
	Iterations int
	// SeedCache memoizes single-seed PageRank vectors across
	// PersonalizedSumCtx and multi-source calls (stored under
	// qcache.LayerSeed, byte-accounted): each distinct seed consults the
	// cache first and only the misses are solved, so sequential
	// overlapping queries — interactive refinement — pay one solve per
	// new seed instead of one per query seed. Nil, the no-op cache, makes
	// every seed a miss. Caching never changes results: cached and fresh
	// vectors are the same seedVec values folded in the same order (see
	// seedvec.go). Keys fold Damping, Iterations, and CacheTag.
	SeedCache *qcache.Cache

	// CacheTag is folded verbatim into every seed-cache key. Callers
	// serving a mutable graph put the graph's epoch here so vectors
	// solved against one epoch are never replayed against another;
	// single-graph callers may leave it empty.
	CacheTag string

	// SolveObs, when non-nil, receives one observation per
	// PersonalizedSumCtx call and one per multi-source batch or stream —
	// the wall time of the whole solve, cache consults included (a fully
	// cached resolve is still a solve the caller waited on), minus the
	// time a stream spends in its ready callbacks. Observation is a few
	// atomic adds; nil costs one branch.
	SolveObs *obs.Histogram
}

// withDefaults fills unset fields with the paper's parameters.
func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.8
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	return o
}

// workspace holds the dense iteration state of one single-seed PageRank
// run. Both vectors are zero outside the recorded touched list (the whole
// vector once dense is set), up to their capacity, an invariant maintained
// by reset so pooled workspaces start clean.
type workspace struct {
	p, next []float64
	touched []kg.NodeID // nodes with p != 0 (unused once dense)
	nextT   []kg.NodeID // nodes with next != 0 (scratch for the sweep)
	dense   bool        // the run saturated and switched to dense sweeps
}

var wsPool sync.Pool

// getWorkspace returns a zeroed workspace whose vectors are n long. A
// workspace grows with an eighth of headroom, so a graph that gains a few
// nodes per ingest batch keeps its pooled workspaces instead of dropping
// every one after every batch.
func getWorkspace(n int) *workspace {
	ws, _ := wsPool.Get().(*workspace)
	if ws == nil {
		ws = &workspace{}
	}
	if cap(ws.p) < n {
		ws.p = make([]float64, n, n+n/8)
		ws.next = make([]float64, n, n+n/8)
	}
	ws.p, ws.next = ws.p[:n], ws.next[:n]
	return ws
}

// reset clears the workspace back to all-zero state — sparsely via the
// touched list, or with one full sweep if the run went dense.
func (ws *workspace) reset() {
	if ws.dense {
		// Gather sweeps overwrite instead of accumulate, so both vectors
		// may hold stale values after a dense run.
		clear(ws.p)
		clear(ws.next)
		ws.dense = false
	} else {
		for _, u := range ws.touched {
			ws.p[u] = 0
		}
	}
	ws.touched = ws.touched[:0]
	ws.nextT = ws.nextT[:0]
}

// release resets the workspace and returns it to the pool.
func (ws *workspace) release() {
	ws.reset()
	wsPool.Put(ws)
}

// denseSwitchDivisor controls the sparse→dense handoff: an iteration runs
// dense once the frontier exceeds NumNodes/denseSwitchDivisor. The gather
// sweep costs O(E) regardless of support, while the sparse sweep pays
// several times more per frontier edge for its bookkeeping (zero checks,
// touched appends, scattered writes), so the crossover sits well below
// half the graph. Support only grows (the teleport re-injects the seed
// every iteration), so the switch is one-way.
const denseSwitchDivisor = 6

// personalizedInto runs the hybrid power iteration from seed, leaving the
// final vector in ws.p — with its support in ws.touched, or dense
// (ws.dense) if the frontier saturated. opt must already carry defaults;
// the caller owns ws and must reset or release it after consuming the
// result.
//
// The sparse iterations walk the frontier in node order until it
// saturates; every iteration from then on is a dense gather, which reads
// and writes the transpose's row order (kg.TransitionCSR.ToRows) and
// overwrites next outright, so ws.touched is not maintained in the dense
// regime. The vector enters row order once, at the switch, and returns to
// node order once, when the loop ends, so ws.p is in node order whenever
// the caller sees it. Either way the teleport puts the restart mass, plus
// the mass stranded on dangling nodes, back on the seed.
//
// Cancellation is checked between sweeps: once ctx is done the run stops
// mid-schedule and leaves a partial vector in ws, in node order, so
// callers must consult ctx.Err() before using (or caching) the result.
func personalizedInto(ctx context.Context, g *kg.Graph, seed kg.NodeID, opt Options, ws *workspace) {
	tr := g.Transitions()
	c := opt.Damping
	p, next := ws.p, ws.next
	p[seed] = 1
	touched, nextT := append(ws.touched, seed), ws.nextT[:0]
	for it := 0; it < opt.Iterations && ctx.Err() == nil; it++ {
		if !ws.dense && len(touched)*denseSwitchDivisor >= len(p) {
			ws.dense = true
			tr.ToRows(next, p)
			p, next = next, p
		}
		if ws.dense {
			dangling := tr.GatherStep(next, p, c)
			next[tr.Row(seed)] += (1 - c) + float64(c*dangling)
			p, next = next, p
			continue
		}
		dangling := sparseSweep(g, tr, p, next, touched, &nextT, c)
		if next[seed] == 0 {
			nextT = append(nextT, seed)
		}
		next[seed] += (1 - c) + float64(c*dangling)
		for _, u := range touched {
			p[u] = 0
		}
		p, next = next, p
		touched, nextT = nextT, touched[:0]
	}
	if ws.dense {
		tr.FromRows(next, p)
		p, next = next, p
	}
	ws.p, ws.next = p, next
	ws.touched, ws.nextT = touched, nextT
}

// sparseSweep propagates one step over the frontier only, appending the
// support of next to *nextT. Used while the walk touches a small fraction
// of the graph.
func sparseSweep(g *kg.Graph, tr *kg.TransitionCSR, p, next []float64, touched []kg.NodeID, nextT *[]kg.NodeID, c float64) float64 {
	nt := *nextT
	dangling := 0.0
	for _, from := range touched {
		pf := p[from]
		adj := g.OutEdges(from)
		if len(adj) == 0 {
			dangling += pf
			continue
		}
		cpf := c * pf
		for _, e := range adj {
			share := float64(cpf * tr.Prob(from, e.Label))
			if share == 0 {
				continue // zero-weight label: no mass, keep nextT exact
			}
			if next[e.To] == 0 {
				nt = append(nt, e.To)
			}
			next[e.To] += share
		}
	}
	*nextT = nt
	return dangling
}

// PersonalizedSumCtx runs one weighted PageRank per seed (the paper
// computes "the PageRank starting from each node in the query ...
// individually") and returns the element-wise sum of the resulting
// vectors. A one-seed list returns that seed's PageRank vector.
//
// The sum is the per-seed fold of a batch of one (foldSeedSum): each
// distinct seed is served from Options.SeedCache or solved on the calling
// goroutine, and the per-seed vectors are folded into the sum in seed-list
// order, so the result is bitwise identical for every cache state. Without
// a seed cache, peak memory stays at one workspace plus one vector per
// seed the list repeats.
//
// Every solve checks ctx between power-iteration sweeps, so a dropped
// request stops burning CPU within one sweep. A sum cut short by ctx is
// never returned: the result is nil — callers must treat ctx.Err() != nil
// as "no result" — and nothing partial is ever stored in the seed cache.
//
// No request calls it — selection runs PersonalizedSumMultiStream — so
// bench/replay.go's per-stage probe is its only non-test caller.
func PersonalizedSumCtx(ctx context.Context, g *kg.Graph, seeds []kg.NodeID, opt Options) []float64 {
	start := time.Now()
	var sum []float64
	foldSeedSum(ctx, g, [][]kg.NodeID{seeds}, opt.withDefaults(), func(_ int, s []float64) { sum = s })
	if opt.SolveObs != nil {
		opt.SolveObs.Observe(time.Since(start))
	}
	return sum
}

// Package ctxsel implements context selection (Definition 2): finding the
// top-k nodes most similar to a query set.
//
// Definition 2 has one shape — score every node against Q, cut the top-k —
// and so does this package: a Selector scores, releasing each query's
// vector once it is complete, and TopKFromScores cuts. Two selectors come
// from the paper:
//
//   - RandomWalk — the baseline: informativeness-weighted Personalized
//     PageRank from each query node, summed (Section 3.1, Eq. 1–2).
//   - ContextRW — the contribution: mine metapaths that connect the graph
//     to the query (PathMining), keep the |M| most frequent, then score
//     every node by σ(n', Q) = Σ_{m,n} |{n ⇝m n'}| / |{n ⇝m n”}| · Pr(m).
//
// Two more from related work serve as ablations: SimRank-style neighbor
// similarity and neighborhood Jaccard overlap. Both ignore edge labels,
// which is exactly the deficiency the paper points out; keeping them
// runnable makes the comparison concrete.
package ctxsel

import (
	"context"
	"slices"
	"sync"

	"repro/internal/kg"
	"repro/internal/metapath"
	"repro/internal/obs"
	"repro/internal/ppr"
	"repro/internal/topk"
)

// Selector scores every graph node against each query of a batch. The
// context of a query is always TopKFromScores(scores, query, k); k is the
// caller's business, so one scoring pass serves any context size.
type Selector interface {
	// Name identifies the selector in reports and cache keys.
	Name() string
	// Scores computes one dense similarity vector per query (index = node
	// ID; query nodes may carry arbitrary scores, the cut excludes them)
	// and hands it to ready(i, scores), exactly once per query, on the
	// calling goroutine, the moment that vector is complete (expensive
	// consumers should offload). Releases may come in any order; a single
	// query is a batch of one. Each vector is bitwise what a batch of just
	// that query yields. Once ctx is done the call stops and unreleased
	// queries never get a callback, so only complete vectors are released.
	Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(i int, scores []float64))
}

// Select resolves one query's ranked context through sel: up to k nodes by
// descending similarity, never including query nodes. A ctx done before
// the vector is complete yields nil.
func Select(ctx context.Context, sel Selector, g *kg.Graph, query []kg.NodeID, k int) []topk.Item {
	var scores []float64
	sel.Scores(ctx, g, [][]kg.NodeID{query}, func(_ int, s []float64) { scores = s })
	if scores == nil {
		return nil
	}
	return TopKFromScores(scores, query, k)
}

// scoreEach is Scores for selectors that score one query at a time: score
// runs per query in order, each vector released as it completes. A score
// cut short by ctx is dropped along with the rest of the batch.
func scoreEach(ctx context.Context, queries [][]kg.NodeID, ready func(i int, scores []float64), score func(query []kg.NodeID) []float64) {
	for i, q := range queries {
		if ctx.Err() != nil {
			return
		}
		scores := score(q)
		if ctx.Err() != nil {
			return
		}
		ready(i, scores)
	}
}

// TopKFromScores cuts the k best-scored nodes from a dense score vector,
// excluding the query nodes and zero scores — the shared selection step of
// every score-based selector. The order is total (score, then ID), so the
// cut at k is a prefix of the cut at any K ≥ k; no k allocates past n.
//
// Query membership is checked only for a node that would enter the heap:
// ids ascend, so once the heap is full a node enters only with a score
// strictly above its root's (a tie keeps the smaller, earlier id).
func TopKFromScores(scores []float64, query []kg.NodeID, k int) []topk.Item {
	skip := slices.Clone(query)
	slices.Sort(skip)
	sel := topk.New(min(k, len(scores)))
	for id, sc := range scores {
		if root, full := sel.Threshold(); sc == 0 || full && !(sc > root) {
			continue
		}
		if _, isQuery := slices.BinarySearch(skip, uint32(id)); !isQuery {
			sel.Offer(uint32(id), sc)
		}
	}
	return sel.Ranked()
}

// RandomWalk is the paper's baseline selector: summed Personalized
// PageRank from each query node.
type RandomWalk struct {
	Opt ppr.Options
}

// Name implements Selector.
func (RandomWalk) Name() string { return "RandomWalk" }

// Scores implements Selector through ppr's one PageRank schedule, the
// per-seed fold: each distinct seed is solved to completion when the batch
// first reaches it, on the calling goroutine, and a query is released as
// its last seed folds.
func (s RandomWalk) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(i int, scores []float64)) {
	// The returned error is ctx.Err(), which the caller consults itself.
	_ = ppr.PersonalizedSumMultiStream(ctx, g, queries, s.Opt, ready)
}

// ContextRW is the paper's context selector (Section 3.1).
type ContextRW struct {
	// Walks is the PathMining sampling budget: each query reads the first
	// Walks walks of the graph's walk bank (metapath.MineOptions.Walks),
	// which is built on the first query of a graph and sized by the
	// largest budget asked of it, so Walks is a per-graph budget, not a
	// per-query cost. The paper runs 1M walks; scale down for smaller
	// graphs. Default 200000.
	Walks int
	// BankWalks, when above Walks, sizes a walk bank the selection builds
	// (metapath.MineOptions.BankWalks): a caller whose per-query budgets
	// vary passes the largest, so one build serves every one of them.
	BankWalks int
	// NumPaths is |M|, the number of retained metapaths. The paper finds
	// F1 insensitive to it and suggests 5. Default 5.
	NumPaths int
	// MaxLength bounds metapath length; the paper suggests 5. Default 5.
	MaxLength int
	// Uniform disables informativeness weighting during mining.
	Uniform bool
	// Seed fixes mining randomness.
	Seed int64
	// BuildObs, when non-nil, receives the wall time of every walk-bank
	// build a selection runs (metapath.MineOptions.BuildObs).
	BuildObs *obs.Histogram
}

// Name implements Selector.
func (ContextRW) Name() string { return "ContextRW" }

func (s ContextRW) withDefaults() ContextRW {
	if s.Walks == 0 {
		s.Walks = 200000
	}
	if s.NumPaths == 0 {
		s.NumPaths = 5
	}
	if s.MaxLength == 0 {
		s.MaxLength = 5
	}
	return s
}

// Scores implements Selector: per query, mine then score. Mining reads
// the graph's walk bank; the first selection on a graph builds it, and
// that build — the one long step — honors cancellation via
// metapath.MineCtx. The scoring pass runs only while ctx stays live.
func (s ContextRW) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(i int, scores []float64)) {
	s = s.withDefaults()
	scoreEach(ctx, queries, ready, func(query []kg.NodeID) []float64 {
		mined := metapath.MineCtx(ctx, g, query, metapath.MineOptions{
			Walks:     s.Walks,
			BankWalks: s.BankWalks,
			MaxLength: s.MaxLength,
			Uniform:   s.Uniform,
			Seed:      s.Seed,
			BuildObs:  s.BuildObs,
		})
		if ctx.Err() != nil {
			return nil
		}
		return s.ScoresWithPaths(g, query, mined)
	})
}

// ScoresWithPaths scores nodes against an already-mined metapath list
// (sorted by descending count, as Mine returns it). Exposed so experiments
// can sweep |M| (s.NumPaths) without re-mining.
//
// The paper scores by "the probability that some metapath starting from a
// query node ends in this node": mined label sequences are matched from
// the query verbatim, not reversed. Purely inbound sequences (e.g. the
// hasChild⁻¹ funnel from a child leaf) find no match from the query side
// and would contribute nothing to σ, so the top-|M| cut is applied over
// the query-matchable metapaths only; Pr(m) is then the count share within
// that kept set, exactly as in Section 3.1.
func (s ContextRW) ScoresWithPaths(g *kg.Graph, query []kg.NodeID, mined []metapath.Mined) []float64 {
	s = s.withDefaults()
	scores := make([]float64, g.NumNodes())
	if len(mined) == 0 || len(query) == 0 {
		return scores
	}
	inQuery := make(map[kg.NodeID]bool, len(query))
	for _, q := range query {
		inQuery[q] = true
	}

	// Select up to NumPaths query-matchable metapaths in count order,
	// accumulating each one's per-node match share Σ_q counts_q[n']/denom_q
	// in a pooled buffer with an explicit support list, so the whole loop
	// touches only reached nodes. Path counting goes through one shared
	// metapath.Scratch and all buffers live in one pooled scoring state —
	// a warm call allocates only the result vector.
	st := scoreStatePool.Get().(*scoreState)
	st.counts = st.counts[:0]
	nKept := 0
	for _, mp := range mined {
		if nKept == s.NumPaths {
			break
		}
		var sb *shareBuf
		for _, q := range query {
			counts, touched := metapath.CountPathsInto(g, q, mp.Path, &st.sc)
			denom := 0.0
			for _, v := range touched {
				if !inQuery[v] {
					denom += counts[v]
				}
			}
			if denom == 0 {
				continue
			}
			if sb == nil {
				sb = st.share(nKept, g.NumNodes())
			}
			for _, v := range touched {
				if inQuery[v] {
					continue
				}
				if sb.buf[v] == 0 {
					sb.touched = append(sb.touched, v)
				}
				sb.buf[v] += counts[v] / denom
			}
		}
		if sb != nil {
			st.counts = append(st.counts, mp.Count)
			nKept++
		}
	}

	var total int64
	for _, c := range st.counts {
		total += c
	}
	for i := 0; i < nKept; i++ {
		sb := &st.shares[i]
		if total > 0 {
			prM := float64(st.counts[i]) / float64(total)
			for _, v := range sb.touched {
				scores[v] += prM * sb.buf[v]
			}
		}
		for _, v := range sb.touched {
			sb.buf[v] = 0
		}
	}
	scoreStatePool.Put(st)
	return scores
}

// shareBuf is one metapath's per-node match-share accumulator: a dense
// buffer zero outside its recorded support.
type shareBuf struct {
	buf     []float64
	touched []kg.NodeID
}

// scoreState bundles every reusable buffer of one ScoresWithPaths pass:
// the path-counting scratch, one shareBuf per kept metapath, and the kept
// counts. Pooled so repeated scoring (the engine's hot path) allocates
// only its result vector.
type scoreState struct {
	sc     metapath.Scratch
	shares []shareBuf
	counts []int64
}

var scoreStatePool = sync.Pool{New: func() any { return &scoreState{} }}

// share returns the i-th share buffer, cleared and sized for n nodes.
// Buffers are cleared sparsely when a pass finishes, so only growth
// allocates.
func (st *scoreState) share(i, n int) *shareBuf {
	if i == len(st.shares) {
		st.shares = append(st.shares, shareBuf{})
	}
	sb := &st.shares[i]
	if len(sb.buf) < n {
		sb.buf = make([]float64, n)
	}
	sb.touched = sb.touched[:0]
	return sb
}

// Jaccard is an ablation selector from related work: similarity is the
// Jaccard overlap of full (label-blind) neighborhoods, averaged over the
// query nodes. Candidates are restricted to nodes sharing at least one
// neighbor with a query node.
type Jaccard struct{}

// Name implements Selector.
func (Jaccard) Name() string { return "Jaccard" }

// Scores implements Selector.
func (Jaccard) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(i int, scores []float64)) {
	scoreEach(ctx, queries, ready, func(query []kg.NodeID) []float64 {
		return neighborScores(g, query, jaccard)
	})
}

// SimRank is an ablation selector: one-iteration SimRank,
// s(a,b) = C · |N(a) ∩ N(b)| / (|N(a)|·|N(b)|), averaged over query nodes.
// Like the original measure it disregards labels entirely.
type SimRank struct {
	// C is the SimRank decay constant; default 0.8.
	C float64
}

// Name implements Selector.
func (SimRank) Name() string { return "SimRank" }

// Scores implements Selector.
func (s SimRank) Scores(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, ready func(i int, scores []float64)) {
	c := s.C
	if c == 0 {
		c = 0.8
	}
	scoreEach(ctx, queries, ready, func(query []kg.NodeID) []float64 {
		return neighborScores(g, query, func(a, b map[kg.NodeID]bool) float64 {
			if len(a) == 0 || len(b) == 0 {
				return 0
			}
			return c * float64(intersectionSize(a, b)) / (float64(len(a)) * float64(len(b)))
		})
	})
}

// neighborScores is the scoring pass shared by the label-blind ablation
// selectors: the candidates are the non-query nodes sharing at least one
// out-neighbor with a query node, each scored by the mean over the query
// nodes of sim(N(q), N(candidate)); every other node scores zero.
func neighborScores(g *kg.Graph, query []kg.NodeID, sim func(qNbrs, cNbrs map[kg.NodeID]bool) float64) []float64 {
	scores := make([]float64, g.NumNodes())
	inQuery := make(map[kg.NodeID]bool, len(query))
	for _, q := range query {
		inQuery[q] = true
	}
	qNbrs := make([]map[kg.NodeID]bool, len(query))
	candidates := make(map[kg.NodeID]bool)
	for i, q := range query {
		qNbrs[i] = neighborSet(g, q)
		for nb := range qNbrs[i] {
			for _, e := range g.OutEdges(nb) {
				if !inQuery[e.To] {
					candidates[e.To] = true
				}
			}
		}
	}
	for cand := range candidates {
		cNbrs := neighborSet(g, cand)
		sum := 0.0
		for i := range query {
			sum += sim(qNbrs[i], cNbrs)
		}
		scores[cand] = sum / float64(len(query))
	}
	return scores
}

func neighborSet(g *kg.Graph, n kg.NodeID) map[kg.NodeID]bool {
	out := make(map[kg.NodeID]bool)
	for _, e := range g.OutEdges(n) {
		out[e.To] = true
	}
	return out
}

func jaccard(a, b map[kg.NodeID]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	common := intersectionSize(a, b)
	union := len(a) + len(b) - common
	if union == 0 {
		return 0
	}
	return float64(common) / float64(union)
}

func intersectionSize(a, b map[kg.NodeID]bool) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return n
}

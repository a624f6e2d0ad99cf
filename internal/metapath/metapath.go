// Package metapath implements PathMining (Section 3.1): discovering the
// metapaths that connect a query set to the rest of the graph by random
// walks, and counting the paths that match a metapath.
//
// A metapath here is the sequence of edge labels along a path (the paper
// defines metapaths with node labels interleaved but its miner records "the
// sequence of edge labels m encountered during the random walk").
//
// Mining: the paper samples a start node uniformly from V \ Q and walks at
// random — favoring informative (rare) labels like the weighted PageRank
// does — until a query node is reached or the length budget is exhausted;
// each successful walk contributes one occurrence of its label sequence.
// The mined metapaths therefore point *toward* the query. A walk depends
// on Q only through its start and its stop, so this package draws the
// walks once per graph, without Q, into a walk bank (bank.go): uniform
// starts in V, steps until a dead end or the length budget. A query drops
// the bank's walks that start in Q and cuts every other walk at its first
// Q node — the same law as the paper's per-query sampler, paid once per
// graph epoch instead of once per query.
//
// Counting: CountPathsInto propagates path counts along the label sequence
// with one sparse frontier sweep per step, giving |{n ⇝m x}| for every x in
// one pass — the quantity σ of Section 3.1 needs — into reusable Scratch
// buffers.
package metapath

import (
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"repro/internal/kg"
	"repro/internal/obs"
)

// Path is a metapath: a sequence of edge-label IDs.
type Path []kg.LabelID

// Key returns a compact byte-string key identifying the path, usable as a
// map key.
func (p Path) Key() string {
	buf := make([]byte, 0, len(p)*binary.MaxVarintLen32)
	var tmp [binary.MaxVarintLen32]byte
	for _, l := range p {
		n := binary.PutUvarint(tmp[:], uint64(l))
		buf = append(buf, tmp[:n]...)
	}
	return string(buf)
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the path with the graph's label names.
func (p Path) String(g *kg.Graph) string {
	s := ""
	for i, l := range p {
		if i > 0 {
			s += "/"
		}
		s += g.LabelName(l)
	}
	return s
}

// Mined is a metapath with its occurrence count from mining.
type Mined struct {
	Path  Path
	Count int64
}

// MineOptions configures PathMining. The zero value selects the paper's
// defaults except for Walks, which must be set (the paper uses 1M).
type MineOptions struct {
	// Walks is the number of sampling walks a query reads: the first Walks
	// walks of the graph's walk bank, which is built once per graph and per
	// (Seed, MaxLength, Uniform), and rebuilt larger when a call asks for
	// more walks than it holds. It is thus a per-graph budget: the largest
	// value a caller passes sets the bank's size.
	Walks int
	// BankWalks, when above Walks, is the size of a bank this call builds:
	// a caller whose budgets vary passes its largest one, so one build
	// serves them all. The call still reads the first Walks walks.
	BankWalks int
	// MaxLength bounds the metapath length in edges. The paper finds 5 a
	// reasonable choice. Default 5.
	MaxLength int
	// Uniform disables informativeness weighting of walk steps.
	Uniform bool
	// Seed makes mining deterministic.
	Seed int64
	// BuildObs, when non-nil, receives the wall time of every walk-bank
	// build a call runs.
	BuildObs *obs.Histogram
}

func (o MineOptions) withDefaults() MineOptions {
	if o.MaxLength == 0 {
		o.MaxLength = 5
	}
	return o
}

func (o MineOptions) bankKey() bankKey {
	return bankKey{seed: o.Seed, maxLength: o.MaxLength, uniform: o.Uniform}
}

// bankWalks is the size of a bank built for o.
func (o MineOptions) bankWalks() int { return max(o.Walks, o.BankWalks) }

// Mine runs PathMining: of opt.Walks random walks from uniform start
// nodes in V, it keeps those that do not start in query and reach a
// query node within opt.MaxLength steps, and records the label sequence
// up to the first such node. The walks come from the graph's walk bank
// (see bank), and the paths are sorted by descending count (ties by
// shorter path, then lexicographic key, so output is deterministic for a
// fixed seed).
func Mine(g *kg.Graph, query []kg.NodeID, opt MineOptions) []Mined {
	return MineCtx(context.Background(), g, query, opt)
}

// mineStreams is the number of walk streams the walks are drawn from:
// walk id i is the (i/4)-th walk of stream i mod 4, seeded
// Seed + (i mod 4)·0x9e3779b9.
const mineStreams = 4

// mineCheckInterval is how many walks a bank build runs between ctx
// probes: frequent enough that a large budget (the paper's 1M walks)
// aborts in well under a walk-batch, rare enough that the probe is free.
const mineCheckInterval = 4096

// MineCtx is Mine under a cancellation context. Only the first call on a
// graph (for its Seed, MaxLength and Uniform, and its budget) builds the
// walk bank and probes ctx, every mineCheckInterval walks; it returns nil
// once ctx is done, and publishes nothing — callers must consult
// ctx.Err() before using the result; a live ctx changes nothing. Every
// other call reads only its query nodes' bank lists.
func MineCtx(ctx context.Context, g *kg.Graph, query []kg.NodeID, opt MineOptions) []Mined {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 || len(query) == 0 || opt.Walks <= 0 {
		return nil
	}
	q := make([]kg.NodeID, 0, len(query))
	for _, v := range query {
		if int(v) < n {
			q = append(q, v)
		}
	}
	slices.Sort(q)
	q = slices.Compact(q)
	if len(q) >= n {
		return nil // no start nodes available
	}
	b := bankFor(ctx, g, opt.bankKey(), opt.Walks, opt.bankWalks(), opt.BuildObs)
	if b == nil {
		return nil
	}
	out := b.mine(q, opt.Walks)
	runtime.KeepAlive(b)
	return out
}

// Prepare builds g's walk bank for opt — Seed, MaxLength, Uniform and the
// Walks budget (BankWalks when larger) — as the first MineCtx call would,
// and returns ctx.Err() if the build was cut. Callers use it to pay the
// one-off build up front, or to time it apart from the queries.
func Prepare(ctx context.Context, g *kg.Graph, opt MineOptions) error {
	opt = opt.withDefaults()
	if g.NumNodes() == 0 || opt.Walks <= 0 {
		return nil
	}
	bankFor(ctx, g, opt.bankKey(), opt.bankWalks(), opt.bankWalks(), opt.BuildObs)
	return ctx.Err()
}

// sortMined returns found's paths by descending count, ties by shorter
// path, then lexicographic key.
func sortMined(found map[string]*Mined) []Mined {
	type keyed struct {
		Mined
		key string
	}
	ks := make([]keyed, 0, len(found))
	for _, m := range found {
		ks = append(ks, keyed{*m, m.Path.Key()})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Count != ks[j].Count {
			return ks[i].Count > ks[j].Count
		}
		if len(ks[i].Path) != len(ks[j].Path) {
			return len(ks[i].Path) < len(ks[j].Path)
		}
		return ks[i].key < ks[j].key
	})
	out := make([]Mined, len(ks))
	for i := range ks {
		out[i] = ks[i].Mined
	}
	return out
}

// walker is what a bank build's walks share, read-only: the graph with
// its node count and label weights read out once.
type walker struct {
	g         *kg.Graph
	n         int
	weight    []float64 // g.LabelWeight per label; nil steps uniformly
	maxLength int
}

func newWalker(g *kg.Graph, key bankKey) *walker {
	wk := &walker{g: g, n: g.NumNodes(), maxLength: key.maxLength}
	if !key.uniform {
		wk.weight = make([]float64, g.NumLabels())
		for l := range wk.weight {
			wk.weight[l] = g.LabelWeight(kg.LabelID(l))
		}
	}
	return wk
}

// walk draws one walk from d: a uniform start in V, then picked steps
// until a dead end or maxLength. It writes the nodes visited (start
// first) to nodes and the labels taken to labels, and returns the steps.
func (wk *walker) walk(d draws, nodes []kg.NodeID, labels []kg.LabelID) int {
	cur := kg.NodeID(d.intn(wk.n))
	nodes[0] = cur
	for step := 0; step < wk.maxLength; step++ {
		adj := wk.g.OutEdges(cur)
		if len(adj) == 0 {
			return step
		}
		e := wk.pick(cur, adj, d)
		labels[step] = e.Label
		cur = e.To
		nodes[step+1] = cur
	}
	return wk.maxLength
}

// pick samples an out-edge proportionally to its label weight by
// rejection sampling: pick a uniform edge, accept with probability equal
// to its weight (weights are in [0, 1) by construction, and close to 1
// for all but the most frequent labels, so acceptance is near-immediate).
// This is O(1) expected regardless of node degree — a linear scan would
// make every walk step through a hub node cost O(degree).
func (wk *walker) pick(from kg.NodeID, adj []kg.Edge, d draws) kg.Edge {
	if wk.weight == nil || wk.g.WeightedOutDegree(from) <= 0 {
		return adj[d.intn(len(adj))]
	}
	for tries := 0; tries < 64; tries++ {
		e := adj[d.intn(len(adj))]
		if d.float64() < wk.weight[e.Label] {
			return e
		}
	}
	// Pathological weights (all ≈ 0): fall back to uniform.
	return adj[d.intn(len(adj))]
}

// draws yields rand.Rand's Intn and Float64 values, draw for draw, straight
// off the rand.Source64 that rand.NewSource documents it returns: a walk
// step is two or three draws, each otherwise paid for through four layers
// of Rand wrapper (Intn, Int31n, Int31, Int63) and a second modulo.
type draws struct{ src rand.Source64 }

func newDraws(seed int64) draws { return draws{rand.NewSource(seed).(rand.Source64)} }

// int31 is rand.Rand.Int31: the top 31 bits of a 63-bit draw.
func (d draws) int31() uint32 { return uint32(d.src.Uint64()>>32) & (1<<31 - 1) }

// intn is rand.Rand.Intn for 0 < n < 2³¹, which node and edge counts are.
func (d draws) intn(n int) int {
	v, m := d.int31(), uint32(n)
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	// Rand.Int31n redraws while v > max = 2³¹−1 − 2³¹%m. Since max > 2³¹−1−m,
	// only a v within m of 2³¹ pays for that modulo.
	if v > 1<<31-1-m {
		for max := 1<<31 - 1 - (1<<31)%m; v > max; {
			v = d.int31()
		}
	}
	return int(v % m)
}

// float64 is rand.Rand.Float64, which redraws a quotient that rounds up to 1.
func (d draws) float64() float64 {
	for {
		if f := float64(d.src.Uint64()&(1<<63-1)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Scratch holds the reusable dense buffers of a path-counting sweep. One
// Scratch serves any number of sequential CountPathsInto calls (it clears
// the previous call's support sparsely on entry); it is not safe for
// concurrent use. The zero value is ready; buffers grow to the largest
// graph seen.
type Scratch struct {
	cur, next   []float64
	curT, nextT []kg.NodeID
}

// CountPathsInto computes, for every node x, the number of paths
// start ⇝m x that follow the label sequence m, using sc's reusable
// buffers. It returns the dense count vector together with the list of
// nodes holding a nonzero count, so callers can iterate the support
// sparsely. Both return values alias sc's buffers and are valid until the
// next call with the same Scratch.
//
// The frontier is propagated label by label: one O(Σ deg(frontier)) sweep
// per step, touching only reached nodes. This is the hot path of the
// ContextRW scoring loop, which counts one (metapath, query node) pair per
// call without allocating.
func CountPathsInto(g *kg.Graph, start kg.NodeID, m Path, sc *Scratch) ([]float64, []kg.NodeID) {
	n := g.NumNodes()
	if len(sc.cur) < n {
		sc.cur = make([]float64, n)
		sc.next = make([]float64, n)
	} else {
		// Clear the previous call's support.
		for _, v := range sc.curT {
			sc.cur[v] = 0
		}
	}
	cur, next := sc.cur, sc.next
	curT, spareT := sc.curT[:0], sc.nextT[:0]
	curT = append(curT, start)
	cur[start] = 1
	for _, label := range m {
		nextT := spareT[:0]
		for _, v := range curT {
			c := cur[v]
			for _, e := range g.OutEdgesByLabel(v, label) {
				if next[e.To] == 0 {
					nextT = append(nextT, e.To)
				}
				next[e.To] += c
			}
		}
		// Reset cur for reuse and swap.
		for _, v := range curT {
			cur[v] = 0
		}
		cur, next = next, cur
		curT, spareT = nextT, curT
		if len(curT) == 0 {
			break
		}
	}
	sc.cur, sc.next = cur, next
	sc.curT, sc.nextT = curT, spareT
	return cur, curT
}

// Package metapath implements PathMining (Section 3.1): discovering the
// metapaths that connect a query set to the rest of the graph by random
// walks, and counting the paths that match a metapath.
//
// A metapath here is the sequence of edge labels along a path (the paper
// defines metapaths with node labels interleaved but its miner records "the
// sequence of edge labels m encountered during the random walk").
//
// Mining: sample a start node uniformly from V \ Q and walk at random —
// favoring informative (rare) labels like the weighted PageRank does —
// until a query node is reached or the length budget is exhausted. Each
// successful walk contributes one occurrence of its label sequence. The
// mined metapaths therefore point *toward* the query.
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
	"sort"

	"repro/internal/kg"
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
	// Walks is the number of sampling walks to attempt.
	Walks int
	// MaxLength bounds the metapath length in edges. The paper finds 5 a
	// reasonable choice. Default 5.
	MaxLength int
	// Uniform disables informativeness weighting of walk steps.
	Uniform bool
	// Seed makes mining deterministic.
	Seed int64
}

func (o MineOptions) withDefaults() MineOptions {
	if o.MaxLength == 0 {
		o.MaxLength = 5
	}
	return o
}

// Mine runs PathMining: it samples opt.Walks random walks from uniform
// start nodes in V \ query and records the label sequence of every walk
// that reaches a query node within opt.MaxLength steps. The walks are drawn
// as mineStreams seeded streams, one after another on the calling
// goroutine, and the paths are sorted by descending count (ties by shorter
// path, then lexicographic key, so output is deterministic for a fixed
// seed).
func Mine(g *kg.Graph, query []kg.NodeID, opt MineOptions) []Mined {
	return MineCtx(context.Background(), g, query, opt)
}

// mineStreams is the number of walk streams a mine splits its budget
// into: stream w draws from seed Seed + w·0x9e3779b9 and runs Walks/4
// walks, plus one for w < Walks%4. The split fixes the mined sample to the
// layout four concurrent workers once drew, uneven budgets and Walks < 4
// included.
const mineStreams = 4

// mineCheckInterval is how many walks a mining stream runs between ctx
// probes: frequent enough that a large budget (the paper's 1M walks)
// aborts in well under a walk-batch, rare enough that the probe is free.
const mineCheckInterval = 4096

// MineCtx is Mine under a cancellation context: it checks ctx every
// mineCheckInterval walks of a stream and returns nil once it is done —
// callers must consult ctx.Err() before using the result; a live ctx
// changes nothing.
func MineCtx(ctx context.Context, g *kg.Graph, query []kg.NodeID, opt MineOptions) []Mined {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 || len(query) == 0 || opt.Walks <= 0 {
		return nil
	}
	wk := walker{g: g, n: n, inQuery: make([]uint64, (n+63)/64), maxLength: opt.MaxLength}
	distinct := 0
	for _, q := range query {
		if int(q) < n && !wk.isQuery(q) {
			wk.inQuery[q>>6] |= 1 << (q & 63)
			distinct++
		}
	}
	if distinct >= n {
		return nil // no start nodes available
	}
	if !opt.Uniform {
		wk.weight = make([]float64, g.NumLabels())
		for l := range wk.weight {
			wk.weight[l] = g.LabelWeight(kg.LabelID(l))
		}
	}

	found := make(map[string]*Mined)
	labels := make(Path, 0, opt.MaxLength)
	for w := 0; w < mineStreams; w++ {
		d := newDraws(opt.Seed + int64(w)*0x9e3779b9)
		walks := opt.Walks / mineStreams
		if w < opt.Walks%mineStreams {
			walks++
		}
		for i := 0; i < walks; i++ {
			if i%mineCheckInterval == 0 && ctx.Err() != nil {
				return nil
			}
			if p := wk.once(d, labels[:0]); p != nil {
				k := p.Key()
				m := found[k]
				if m == nil {
					m = &Mined{Path: append(Path(nil), p...)}
					found[k] = m
				}
				m.Count++
			}
		}
	}
	out := make([]Mined, 0, len(found))
	for _, m := range found {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		return out[i].Path.Key() < out[j].Path.Key()
	})
	return out
}

// walker is what the walks of one MineCtx call share, read-only: the graph
// with its node count and label weights read out once, and the query as a
// node bitset.
type walker struct {
	g         *kg.Graph
	n         int
	inQuery   []uint64  // one bit per node
	weight    []float64 // g.LabelWeight per label; nil steps uniformly
	maxLength int
}

func (wk *walker) isQuery(v kg.NodeID) bool { return wk.inQuery[v>>6]>>(v&63)&1 != 0 }

// once performs one mining walk and returns the label sequence if it
// reached a query node, appending to the labels buffer.
func (wk *walker) once(d draws, labels Path) Path {
	// Uniform start in V \ Q by rejection; the query is tiny relative to V.
	cur := kg.NodeID(d.intn(wk.n))
	for wk.isQuery(cur) {
		cur = kg.NodeID(d.intn(wk.n))
	}
	for step := 0; step < wk.maxLength; step++ {
		adj := wk.g.OutEdges(cur)
		if len(adj) == 0 {
			return nil
		}
		e := wk.pick(cur, adj, d)
		labels = append(labels, e.Label)
		cur = e.To
		if wk.isQuery(cur) {
			return labels
		}
	}
	return nil
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

// Package dist builds the per-label observation distributions of Section
// 3.2: for an edge label l and a node set S, the instance distribution
// (which values the l-edges of S point at, with a None category for nodes
// lacking the label) and the cardinality distribution (how many l-edges
// each node of S carries).
//
// The query's observations are tested against the context's distribution
// by the multinomial test in internal/stats. Two policies govern instance
// values the context never exhibits:
//
//   - UnseenStrict is the paper's formula: a query value with zero context
//     probability is impossible under the context distribution, so the
//     test returns Pr_s = 0 and the label is maximally notable.
//   - UnseenPooled pools idiosyncratic values — values carried by exactly
//     one node across query ∪ context — into a single category. This
//     matters for labels like `created` in the authors test case: every
//     author created only their own works, so under the strict policy any
//     query would look notable even though creating unique works is
//     exactly what the context does too. Pooling compares the *rate* of
//     idiosyncratic behaviour instead of the identities of the values.
package dist

import (
	"sort"

	"repro/internal/kg"
)

// UnseenPolicy selects how instance values absent from the context are
// treated when building test vectors.
type UnseenPolicy int

const (
	// UnseenStrict keeps every value as its own category (the paper's
	// formula): query-only values are impossible under the context.
	UnseenStrict UnseenPolicy = iota
	// UnseenPooled merges idiosyncratic values (exactly one owner across
	// query and context) into one shared category.
	UnseenPooled
)

// NoneIndex is the category index reserved for nodes without the label.
const NoneIndex = 0

// Scratch holds reusable buffers for repeated distribution building — one
// per worker of core's comparison pool. The zero value is ready; buffers
// grow to the largest label seen and are reused across calls. A Scratch
// must not be shared between concurrent builders.
type Scratch struct {
	index map[kg.NodeID]int // value → category, cleared per label
	pi    []float64         // test-vector π buffer
	obs   []int             // pooled-policy observation buffer
}

// Instance is the instance (value) distribution of one label over the
// query and context sets. Categories are indexed 0..NumCategories-1:
// index NoneIndex counts nodes with no l-edge, and index i ≥ 1 counts
// edges pointing at Values[i-1].
type Instance struct {
	// Label is the edge label the distribution describes.
	Label kg.LabelID
	// Values holds the distinct l-edge targets seen across query and
	// context, sorted by node ID; category i ≥ 1 corresponds to
	// Values[i-1].
	Values []kg.NodeID
	// Query and Context hold per-category counts for the two sets.
	Query, Context []int
}

// NumCategories returns the number of categories (None plus values).
func (d Instance) NumCategories() int { return len(d.Query) }

// CategoryName renders category i: "None" for NoneIndex, otherwise the
// value node's name.
func (d Instance) CategoryName(g *kg.Graph, i int) string {
	if i == NoneIndex {
		return "None"
	}
	return g.NodeName(d.Values[i-1])
}

// TestVectorsScratch returns the context distribution (as floats,
// unnormalized) and the query observation aligned with it, applying the
// unseen-value policy. Under UnseenPooled the returned vectors cover the
// kept categories (None plus values with at least two owners) followed by
// one pooled category summing the idiosyncratic values; under UnseenStrict
// they alias the distribution's own count slices. Both policies return π and
// the observation with equal lengths — Query and Context share one category
// space by construction, so the vectors cannot diverge (pinned by
// TestTestVectorsAlwaysAligned). It builds π (and, under UnseenPooled, the
// observation) into s's reusable buffers. The returned slices are valid
// until the next call with the same Scratch; s may be nil, which allocates
// freshly.
func (d Instance) TestVectorsScratch(policy UnseenPolicy, s *Scratch) ([]float64, []int) {
	if s == nil {
		s = &Scratch{}
	}
	if policy != UnseenPooled {
		s.pi = ContextFloatsInto(s.pi[:0], d.Context)
		return s.pi, d.Query
	}
	pi := append(s.pi[:0], float64(d.Context[NoneIndex]))
	obs := append(s.obs[:0], d.Query[NoneIndex])
	pooledCtx, pooledObs, pooled := 0, 0, false
	for i := 1; i < len(d.Query); i++ {
		if d.Query[i]+d.Context[i] <= 1 {
			pooled = true
			pooledCtx += d.Context[i]
			pooledObs += d.Query[i]
			continue
		}
		pi = append(pi, float64(d.Context[i]))
		obs = append(obs, d.Query[i])
	}
	if pooled {
		pi = append(pi, float64(pooledCtx))
		obs = append(obs, pooledObs)
	}
	s.pi, s.obs = pi, obs
	return pi, obs
}

// InstancesScratch builds the instance distribution of label l over the
// query and context node sets. Each node contributes one count per distinct
// l-edge value, or one None count if it has no l-edge. It reuses s's
// category-index map across calls — the dominant allocation when testing
// many labels over one node set. The returned Instance owns fresh count
// and value slices either way; only internal lookup state is recycled. s
// may be nil.
func InstancesScratch(g *kg.Graph, l kg.LabelID, query, context []kg.NodeID, s *Scratch) Instance {
	var index map[kg.NodeID]int
	if s != nil {
		if s.index == nil {
			s.index = make(map[kg.NodeID]int)
		}
		clear(s.index)
		index = s.index
	} else {
		index = make(map[kg.NodeID]int)
	}
	var values []kg.NodeID
	for _, set := range [][]kg.NodeID{query, context} {
		for _, n := range set {
			for _, e := range g.OutEdgesByLabel(n, l) {
				if _, ok := index[e.To]; !ok {
					index[e.To] = 0
					values = append(values, e.To)
				}
			}
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		index[v] = i + 1
	}
	d := Instance{
		Label:   l,
		Values:  values,
		Query:   make([]int, 1+len(values)),
		Context: make([]int, 1+len(values)),
	}
	countInto := func(nodes []kg.NodeID, counts []int) {
		for _, n := range nodes {
			adj := g.OutEdgesByLabel(n, l)
			if len(adj) == 0 {
				counts[NoneIndex]++
				continue
			}
			for _, e := range adj {
				counts[index[e.To]]++
			}
		}
	}
	countInto(query, d.Query)
	countInto(context, d.Context)
	return d
}

// Cardinality is the cardinality (count) distribution of one label:
// Query[i] and Context[i] count the nodes of each set carrying exactly i
// l-edges. Both slices share one length, max cardinality + 1.
type Cardinality struct {
	// Label is the edge label the distribution describes.
	Label kg.LabelID
	// Query and Context are per-cardinality node counts.
	Query, Context []int
}

// Cardinalities builds the cardinality distribution of label l over the
// query and context node sets.
func Cardinalities(g *kg.Graph, l kg.LabelID, query, context []kg.NodeID) Cardinality {
	maxCard := 0
	for _, set := range [][]kg.NodeID{query, context} {
		for _, n := range set {
			if c := len(g.OutEdgesByLabel(n, l)); c > maxCard {
				maxCard = c
			}
		}
	}
	d := Cardinality{
		Label:   l,
		Query:   make([]int, maxCard+1),
		Context: make([]int, maxCard+1),
	}
	for _, n := range query {
		d.Query[len(g.OutEdgesByLabel(n, l))]++
	}
	for _, n := range context {
		d.Context[len(g.OutEdgesByLabel(n, l))]++
	}
	return d
}

// ContextFloats converts a count vector to float64 for the stats package.
func ContextFloats(counts []int) []float64 {
	return ContextFloatsInto(make([]float64, 0, len(counts)), counts)
}

// ContextFloatsInto appends the float64 form of counts to dst and returns
// the extended slice — pass dst[:0] to reuse a scratch buffer.
func ContextFloatsInto(dst []float64, counts []int) []float64 {
	for _, c := range counts {
		dst = append(dst, float64(c))
	}
	return dst
}

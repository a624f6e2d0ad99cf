// Package kg defines the in-memory knowledge-graph model used by every
// algorithm in this repository.
//
// A knowledge graph follows Definition 1 of the paper: a directed graph
// G = (V, E, φ, ψ) where nodes carry a type label (φ) and edges carry an
// edge label (ψ). Two modelling assumptions from Section 2 are baked in:
//
//   - Attributes are modelled as edges to value nodes (a birth date is a
//     node connected via a "birthdate" edge), so the graph is homogeneous.
//   - Every edge (s, l, o) has a reverse edge (o, l⁻¹, s). The Builder adds
//     reverse edges automatically; the inverse of label "foo" is named
//     "foo⁻¹" and InverseLabel maps between the two in O(1).
//
// The adjacency is stored in compressed sparse row (CSR) form: a single
// edge slice sorted by (label, target) per node, plus per-node offsets.
// Graphs are immutable after Build and safe for concurrent readers.
//
// kg owns all graph I/O. It interns node, label and type names into dense
// IDs itself (dict.go); ReadTriples builds a graph from parsed statements
// in input order; and WriteSnapshot/ReadSnapshot (snapshot.go) are the one
// binary format that snapshot files, WAL checkpoints and the replication
// bootstrap share.
//
// Live mutation is layered on top of that immutability rather than poked
// into it: a Versioned store holds the current Graph behind an atomic
// pointer, and each Apply publishes a fresh copy-on-write overlay Graph
// (shared base CSR plus per-node patches) stamped with a new epoch. See
// versioned.go and overlay.go.
package kg

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense: 0..NumNodes-1.
type NodeID = uint32

// LabelID identifies an edge label. IDs are dense: 0..NumLabels-1 and
// include the automatically generated inverse labels.
type LabelID = uint32

// TypeID identifies a node type.
type TypeID = uint32

// NoType marks nodes without an assigned type.
const NoType TypeID = ^TypeID(0)

// InverseSuffix is appended to a label name to form its inverse's name.
const InverseSuffix = "⁻¹"

// InverseName returns the conventional name of the inverse of label name.
// Applying it twice returns the original name.
func InverseName(name string) string {
	if base, ok := baseName(name); ok {
		return base
	}
	return name + InverseSuffix
}

// baseName strips InverseSuffix, reporting whether name carried it.
func baseName(name string) (string, bool) {
	if n := len(name) - len(InverseSuffix); n >= 0 && name[n:] == InverseSuffix {
		return name[:n], true
	}
	return name, false
}

// Edge is a labeled, directed edge to a target node. Edges are stored in
// the owning node's adjacency list, so the source is implicit.
type Edge struct {
	Label LabelID
	To    NodeID
}

// Graph is an immutable labeled multigraph. Build one with a Builder.
//
// A Graph comes in two flavors sharing one read API. A base graph (the
// Builder's and ReadSnapshot's product) stores its adjacency in the CSR
// arrays below. An overlay graph — produced by Versioned.Apply — shares a
// base graph's arrays and dictionaries and layers a copy-on-write patch
// set on top (see overlay); its CSR fields are nil and every accessor
// routes through the patch set first. Both flavors are immutable once
// published and safe for concurrent readers.
type Graph struct {
	nodes  *dict
	labels *dict
	types  *dict

	offsets []int64 // len NumNodes+1; edge range of node n is edges[offsets[n]:offsets[n+1]]
	edges   []Edge  // sorted by (Label, To) within each node's range

	nodeType   []TypeID  // primary type per node (NoType if unset)
	inverse    []LabelID // inverse[l] = l⁻¹
	labelCount []int64   // edges per label (inverses counted separately)

	// weight[l] = 1 − |E_l|/|E| (Eq. 1), the informativeness of label l.
	weight []float64
	// wdeg[n] = Σ_{e ∈ out(n)} weight[e.Label], cached for transition
	// probability normalization. nil on overlay graphs, which compute it
	// lazily (overlay.wdegs).
	wdeg []float64

	// trans is the lazily built per-edge transition matrix (see
	// TransitionCSR); derived data, never serialized.
	transOnce sync.Once
	trans     *TransitionCSR

	// walkBank is the metapath package's walk bank for this graph (see
	// WalkBankSlot); derived data, never serialized.
	walkBank atomic.Value

	// ov, when non-nil, marks this graph as a copy-on-write view over
	// ov.base. Base graphs leave it nil and never pay more than the nil
	// check on the read path.
	ov *overlay
}

// WalkBankSlot returns the graph's slot for the metapath package's walk
// bank: data another package derives from the graph and caches on it, so
// that it lives exactly as long as the graph's epoch of a Versioned
// store. kg reads the slot only to hand it on at compaction, whose flat
// graph reads the same as the overlay graph it replaces, so one slot
// serves both. The stored value must not point back to the graph, or a
// finalizer on it would keep the pair alive.
func (g *Graph) WalkBankSlot() *atomic.Value { return &g.walkBank }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return g.ov.n
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E| including the automatically added inverse edges.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return g.ov.m
	}
	return len(g.edges)
}

// NumLabels returns the number of distinct edge labels, inverses included.
func (g *Graph) NumLabels() int { return len(g.inverse) }

// NumTypes returns the number of distinct node types.
func (g *Graph) NumTypes() int {
	if g.ov != nil {
		return g.types.len() + g.ov.typeX.count()
	}
	return g.types.len()
}

// NodeName returns the name of node n.
func (g *Graph) NodeName(n NodeID) string {
	if g.ov != nil {
		if name, ok := g.ov.nodeX.name(n); ok {
			return name
		}
	}
	return g.nodes.name(n)
}

// NodeByName returns the ID of the named node, and whether it exists.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id := g.nodes.lookup(name)
	if id == noID && g.ov != nil {
		return g.ov.nodeX.lookup(name)
	}
	return id, id != noID
}

// LabelName returns the name of edge label l.
func (g *Graph) LabelName(l LabelID) string {
	if g.ov != nil {
		if name, ok := g.ov.labelX.name(l); ok {
			return name
		}
	}
	return g.labels.name(l)
}

// LabelByName returns the ID of the named edge label, and whether it exists.
func (g *Graph) LabelByName(name string) (LabelID, bool) {
	id := g.labels.lookup(name)
	if id == noID && g.ov != nil {
		return g.ov.labelX.lookup(name)
	}
	return id, id != noID
}

// TypeName returns the name of node type t.
func (g *Graph) TypeName(t TypeID) string {
	if t == NoType {
		return ""
	}
	if g.ov != nil {
		if name, ok := g.ov.typeX.name(t); ok {
			return name
		}
	}
	return g.types.name(t)
}

// TypeOf returns φ(n), the primary type of node n (NoType if unset).
func (g *Graph) TypeOf(n NodeID) TypeID {
	if g.ov != nil {
		if t, ok := g.ov.typePatch[n]; ok {
			return t
		}
		if int(n) >= len(g.nodeType) {
			return NoType
		}
	}
	return g.nodeType[n]
}

// InverseLabel returns l⁻¹.
func (g *Graph) InverseLabel(l LabelID) LabelID { return g.inverse[l] }

// IsInverse reports whether l is one of the automatically generated inverse
// labels (its name carries InverseSuffix).
func (g *Graph) IsInverse(l LabelID) bool {
	_, ok := baseName(g.LabelName(l))
	return ok
}

// OutEdges returns the adjacency slice of node n, sorted by (Label, To).
// The slice is owned by the graph and must not be modified.
func (g *Graph) OutEdges(n NodeID) []Edge {
	if g.ov != nil {
		return g.ov.outEdges(n)
	}
	return g.edges[g.offsets[n]:g.offsets[n+1]]
}

// OutEdgesByLabel returns the contiguous sub-slice of n's adjacency whose
// label is l. The slice is owned by the graph and must not be modified.
func (g *Graph) OutEdgesByLabel(n NodeID, l LabelID) []Edge {
	adj := g.OutEdges(n)
	lo := sort.Search(len(adj), func(i int) bool { return adj[i].Label >= l })
	hi := sort.Search(len(adj), func(i int) bool { return adj[i].Label > l })
	return adj[lo:hi]
}

// LabelCount returns |E_l|, the number of edges labeled l.
func (g *Graph) LabelCount(l LabelID) int64 { return g.labelCount[l] }

// LabelWeight returns the informativeness weight 1 − |E_l|/|E| of Eq. 1.
func (g *Graph) LabelWeight(l LabelID) float64 { return g.weight[l] }

// WeightedOutDegree returns Σ over out-edges of n of LabelWeight, the
// normalizer of the weighted transition probability.
func (g *Graph) WeightedOutDegree(n NodeID) float64 {
	if g.ov != nil {
		return g.ov.wdegs()[n]
	}
	return g.wdeg[n]
}

// LabelsOf returns the distinct edge labels present on the out-edges of the
// given nodes, ascending — L restricted to the set, per Definition 3.
func (g *Graph) LabelsOf(nodes []NodeID) []LabelID {
	seen := make([]uint64, (g.NumLabels()+63)/64)
	count := 0
	for _, n := range nodes {
		for _, e := range g.OutEdges(n) {
			w, bit := e.Label/64, uint64(1)<<(e.Label%64)
			if seen[w]&bit == 0 {
				seen[w] |= bit
				count++
			}
		}
	}
	out := make([]LabelID, 0, count)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			out = append(out, LabelID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// NodesWithType returns all nodes whose primary type is t, in ID order.
func (g *Graph) NodesWithType(t TypeID) []NodeID {
	if g.ov != nil {
		var out []NodeID
		for n := 0; n < g.ov.n; n++ {
			if g.TypeOf(NodeID(n)) == t {
				out = append(out, NodeID(n))
			}
		}
		return out
	}
	var out []NodeID
	for n, tt := range g.nodeType {
		if tt == t {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// Stats returns a one-line summary of the graph's size.
func (g *Graph) Stats() string {
	return fmt.Sprintf("%d nodes, %d edges, %d labels, %d types",
		g.NumNodes(), g.NumEdges(), g.NumLabels(), g.NumTypes())
}

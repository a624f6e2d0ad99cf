package kg

import (
	"cmp"
	"io"
	"slices"
)

// rawEdge is a builder-side edge with an explicit source.
type rawEdge struct {
	from  NodeID
	label LabelID
	to    NodeID
}

// Builder accumulates nodes, typed nodes, and edges, then produces an
// immutable Graph. By default every added edge also produces its reverse
// edge under the inverse label (Section 2's modelling assumption); labels
// can be declared symmetric so that they act as their own inverse.
type Builder struct {
	nodes  *dict
	labels *dict
	types  *dict

	edges     []rawEdge
	nodeType  []TypeID
	symmetric map[LabelID]bool
	noInverse bool
}

// NewBuilder returns a Builder with capacity hints for nEdges edges.
func NewBuilder(nEdges int) *Builder {
	return &Builder{
		nodes:     newDict(nEdges / 4),
		labels:    newDict(32),
		types:     newDict(32),
		edges:     make([]rawEdge, 0, nEdges),
		symmetric: make(map[LabelID]bool),
	}
}

// DisableInverses stops the Builder from materializing reverse edges.
// Intended for tests and for loading files that already contain them.
func (b *Builder) DisableInverses() *Builder {
	b.noInverse = true
	return b
}

// Node interns a node name and returns its ID.
func (b *Builder) Node(name string) NodeID {
	id := b.nodes.put(name)
	for len(b.nodeType) < b.nodes.len() {
		b.nodeType = append(b.nodeType, NoType)
	}
	return id
}

// Label interns an edge label name and returns its ID.
func (b *Builder) Label(name string) LabelID { return b.labels.put(name) }

// Type interns a node type name and returns its ID.
func (b *Builder) Type(name string) TypeID { return b.types.put(name) }

// Symmetric declares label name to be its own inverse (e.g. "spouse").
// Edges with a symmetric label are mirrored under the same label.
func (b *Builder) Symmetric(name string) *Builder {
	b.symmetric[b.Label(name)] = true
	return b
}

// SetType assigns the primary type of a node.
func (b *Builder) SetType(node, typeName string) {
	n := b.Node(node)
	b.nodeType[n] = b.Type(typeName)
}

// SetTypeID assigns the primary type of an already-interned node.
func (b *Builder) SetTypeID(n NodeID, t TypeID) { b.nodeType[n] = t }

// AddEdge records the edge (from, label, to), interning all names.
func (b *Builder) AddEdge(from, label, to string) {
	b.AddEdgeIDs(b.Node(from), b.Label(label), b.Node(to))
}

// AddEdgeIDs records an edge between already-interned IDs.
func (b *Builder) AddEdgeIDs(from NodeID, label LabelID, to NodeID) {
	b.edges = append(b.edges, rawEdge{from: from, label: label, to: to})
}

// NumEdges returns the number of forward edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// NumNodes returns the number of interned nodes so far.
func (b *Builder) NumNodes() int { return b.nodes.len() }

// Build freezes the Builder into a Graph. The Builder must not be used
// afterwards.
func (b *Builder) Build() *Graph {
	// Assign inverse labels first so the label dictionary is complete.
	nFwd := b.labels.len()
	inverse := make([]LabelID, nFwd)
	for l := 0; l < nFwd; l++ {
		if b.symmetric[LabelID(l)] {
			inverse[l] = LabelID(l)
			continue
		}
		inverse[l] = b.labels.put(InverseName(b.labels.name(LabelID(l))))
	}
	// Inverse labels introduced above map back to their base label.
	full := make([]LabelID, b.labels.len())
	copy(full, inverse)
	for l := 0; l < nFwd; l++ {
		if inv := inverse[l]; int(inv) >= nFwd {
			full[inv] = LabelID(l)
		}
	}

	all := b.edges
	if !b.noInverse {
		all = make([]rawEdge, 0, 2*len(b.edges))
		all = append(all, b.edges...)
		for _, e := range b.edges {
			rev := rawEdge{from: e.to, label: full[e.label], to: e.from}
			// A symmetric self-loop would duplicate itself exactly;
			// deduplication below handles that.
			all = append(all, rev)
		}
	}

	all = sortedUnique(all)

	n := b.nodes.len()
	g := &Graph{
		nodes:      b.nodes,
		labels:     b.labels,
		types:      b.types,
		offsets:    make([]int64, n+1),
		edges:      make([]Edge, len(all)),
		nodeType:   b.nodeType,
		inverse:    full,
		labelCount: make([]int64, b.labels.len()),
	}
	for len(g.nodeType) < n {
		g.nodeType = append(g.nodeType, NoType)
	}
	for _, e := range all {
		g.offsets[e.from+1]++
		g.labelCount[e.label]++
	}
	for i := 1; i <= n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	cursor := make([]int64, n)
	for _, e := range all {
		pos := g.offsets[e.from] + cursor[e.from]
		g.edges[pos] = Edge{Label: e.label, To: e.to}
		cursor[e.from]++
	}
	g.deriveWeights()
	b.edges = nil
	return g
}

// sortedUnique sorts es by (from, label, to) and drops exact repeats, in
// place.
func sortedUnique(es []rawEdge) []rawEdge {
	slices.SortFunc(es, func(a, c rawEdge) int {
		if a.from != c.from {
			return cmp.Compare(a.from, c.from)
		}
		if a.label != c.label {
			return cmp.Compare(a.label, c.label)
		}
		return cmp.Compare(a.to, c.to)
	})
	return slices.Compact(es)
}

// deriveWeights fills the data a CSR implies and no file stores: the
// label weights of Eq. 1 from labelCount, and every node's weighted
// out-degree.
func (g *Graph) deriveWeights() {
	g.weight = make([]float64, len(g.labelCount))
	total := float64(len(g.edges))
	for l := range g.weight {
		if total > 0 {
			g.weight[l] = 1 - float64(g.labelCount[l])/total
		}
	}
	g.wdeg = make([]float64, g.NumNodes())
	for v := range g.wdeg {
		sum := 0.0
		for _, e := range g.OutEdges(NodeID(v)) {
			sum += g.weight[e.Label]
		}
		g.wdeg[v] = sum
	}
}

// ReadTriples builds a Graph from statements in input order: next returns
// them one at a time and io.EOF after the last; any other error aborts the
// load and is returned as is. Statements whose predicate equals
// typePredicate assign node types instead of edges; "" makes every
// predicate an edge label. Reverse edges are added as Build adds them.
//
// The input fixes the numbering. Nodes are numbered by first appearance,
// subject before object, type objects included. The statements are then
// sorted by (subject, predicate, object) — predicates ranked by first
// appearance — and deduplicated, and edge labels and types are interned in
// that order; of several types stated for one node the last in that order
// wins.
func ReadTriples(next func() (Triple, error), typePredicate string) (*Graph, error) {
	b := NewBuilder(1024)
	preds := newDict(16)
	for {
		t, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s, p := b.Node(t.S), preds.put(t.P)
		b.edges = append(b.edges, rawEdge{from: s, label: p, to: b.Node(t.O)})
	}
	typeP := noID
	if typePredicate != "" {
		typeP = preds.lookup(typePredicate)
	}
	// Swap predicate IDs for label IDs in sorted order, moving the type
	// statements out of the edge list.
	label := make([]LabelID, preds.len())
	for i := range label {
		label[i] = noID
	}
	es := b.edges[:0]
	for _, e := range sortedUnique(b.edges) {
		if e.label == typeP {
			b.nodeType[e.from] = b.Type(b.nodes.name(e.to))
			continue
		}
		if label[e.label] == noID {
			label[e.label] = b.Label(preds.name(e.label))
		}
		e.label = label[e.label]
		es = append(es, e)
	}
	b.edges = es
	return b.Build(), nil
}

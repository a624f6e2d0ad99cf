package kg

import "sync"

// overlay is the copy-on-write patch set of an overlay Graph: a shared,
// immutable base graph plus the per-node adjacency slices that differ
// from it. A node appears in patched iff a mutation ever touched it; its
// slice is the node's complete, merged adjacency (sorted by (Label, To)
// and deduplicated, exactly the order Builder.Build would produce), so
// reads are at most one map probe, not a merge; patchedBits marks the
// patched nodes, so that reads of untouched nodes skip the probe. Nodes
// and labels created after the base was built live in the extraNames
// layers; deletes remove edges but never nodes, so IDs stay dense and
// append-only.
//
// All fields are frozen once the owning Graph is published. The only
// lazily materialized piece is wdeg — every entry changes on every
// mutation (label weights are global), so it is rebuilt at most once per
// epoch, on first use, with the same arithmetic as Builder.Build.
type overlay struct {
	g    *Graph // the overlay graph owning this patch set
	base *Graph // flat base graph; never an overlay itself

	n int // total nodes, base + new
	m int // total edges after patches

	patched     map[NodeID][]Edge
	patchedBits []uint64 // bit v set iff patched holds node v
	typePatch   map[NodeID]TypeID

	nodeX  *extraNames
	labelX *extraNames
	typeX  *extraNames

	// adds and dels count the forward triples applied since the base was
	// built (mirror edges not counted). Reset to zero by compaction.
	adds, dels int

	wdegOnce sync.Once
	wdeg     []float64
}

// outEdges returns node n's effective adjacency.
func (o *overlay) outEdges(n NodeID) []Edge {
	return patchedAdjacency(o.base, o.patched, o.patchedBits, n)
}

// patchedAdjacency returns node n's adjacency in patched when its bit is
// set in bits, and otherwise its adjacency in the flat base graph.
func patchedAdjacency(base *Graph, patched map[NodeID][]Edge, bits []uint64, n NodeID) []Edge {
	if w := int(n / 64); w < len(bits) && bits[w]&(1<<(n%64)) != 0 {
		return patched[n]
	}
	if int(n) < base.NumNodes() {
		return base.edges[base.offsets[n]:base.offsets[n+1]]
	}
	return nil
}

// wdegs returns the weighted out-degree of every node, computing the
// slice on first use with Builder.Build's exact summation order so the
// values are bitwise identical to a from-scratch build at this epoch.
func (o *overlay) wdegs() []float64 {
	o.wdegOnce.Do(func() {
		wd := make([]float64, o.n)
		for v := range wd {
			sum := 0.0
			for _, e := range o.outEdges(NodeID(v)) {
				sum += o.g.weight[e.Label]
			}
			wd[v] = sum
		}
		o.wdeg = wd
	})
	return o.wdeg
}

// extraNames is an immutable append-only extension of a frozen base
// dictionary: IDs below base resolve through the base Dict, IDs at or
// above it through byID. A nil *extraNames behaves as an empty layer.
type extraNames struct {
	base  uint32
	byStr map[string]uint32 // name → absolute ID
	byID  []string          // names of IDs base, base+1, ...
}

func (x *extraNames) count() int {
	if x == nil {
		return 0
	}
	return len(x.byID)
}

func (x *extraNames) lookup(name string) (uint32, bool) {
	if x == nil {
		return noID, false
	}
	id, ok := x.byStr[name]
	return id, ok
}

func (x *extraNames) name(id uint32) (string, bool) {
	if x == nil || id < x.base || int(id-x.base) >= len(x.byID) {
		return "", false
	}
	return x.byID[id-x.base], true
}

// clone returns a mutable deep copy rooted at the same base, allocating
// lazily: cloning a nil layer for a base of length n yields an empty
// layer at that base.
func (x *extraNames) clone(base int) *extraNames {
	c := &extraNames{base: uint32(base), byStr: make(map[string]uint32, x.count()+4)}
	if x != nil {
		c.base = x.base
		for k, v := range x.byStr {
			c.byStr[k] = v
		}
		c.byID = append(c.byID, x.byID...)
	}
	return c
}

func (x *extraNames) add(name string) uint32 {
	id := x.base + uint32(len(x.byID))
	x.byStr[name] = id
	x.byID = append(x.byID, name)
	return id
}

// Materialize folds an overlay graph into a fresh flat base graph by
// replaying the effective edge set through a Builder: dictionaries are
// pre-interned in this graph's ID order, then the full sort + dedup +
// derived-data pipeline runs from scratch, so the result is bitwise
// identical to this graph under every accessor while reading at base
// speed. Base graphs return themselves.
func (g *Graph) Materialize() *Graph {
	if g.ov == nil {
		return g
	}
	b := NewBuilder(g.NumEdges()).DisableInverses()
	for n := 0; n < g.NumNodes(); n++ {
		b.Node(g.NodeName(NodeID(n)))
	}
	for l := 0; l < g.NumLabels(); l++ {
		name := g.LabelName(LabelID(l))
		b.Label(name)
		if g.InverseLabel(LabelID(l)) == LabelID(l) {
			b.Symmetric(name)
		}
	}
	for t := 0; t < g.NumTypes(); t++ {
		b.Type(g.TypeName(TypeID(t)))
	}
	for n := 0; n < g.NumNodes(); n++ {
		if t := g.TypeOf(NodeID(n)); t != NoType {
			b.SetTypeID(NodeID(n), t)
		}
		for _, e := range g.OutEdges(NodeID(n)) {
			b.AddEdgeIDs(NodeID(n), e.Label, e.To)
		}
	}
	return b.Build()
}

package kg

import "sync"

// overlay is the copy-on-write patch set of an overlay Graph: a shared,
// immutable base graph plus the per-node adjacency slices that differ
// from it. A node appears in patched iff a mutation ever touched it; its
// slice is the node's complete, merged adjacency (sorted by (Label, To)
// and deduplicated, exactly the order Builder.Build would produce), so
// reads are a single map probe, not a merge. Nodes and labels created
// after the base was built live in the extraNames layers; deletes remove
// edges but never nodes, so IDs stay dense and append-only.
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

	patched   map[NodeID][]Edge
	typePatch map[NodeID]TypeID

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
	if adj, ok := o.patched[n]; ok {
		return adj
	}
	if int(n) < o.base.NumNodes() {
		return o.base.edges[o.base.offsets[n]:o.base.offsets[n+1]]
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

// buildTransitions is the overlay flavor of Graph.Transitions: the same
// probabilities and transpose layout as the base builder, computed over
// the effective adjacency. Enumeration order per node matches the base
// CSR order, so the resulting arrays are bitwise identical to those of a
// from-scratch graph at this epoch.
func (o *overlay) buildTransitions() *TransitionCSR {
	g := o.g
	n := o.n
	wdeg := o.wdegs()
	t := &TransitionCSR{
		g:    g,
		prob: make([]float64, o.m),
		off:  make([]int64, n+1),
	}
	for v := 0; v < n; v++ {
		adj := o.outEdges(NodeID(v))
		lo := t.off[v]
		hi := lo + int64(len(adj))
		t.off[v+1] = hi
		if lo == hi {
			t.dangling = append(t.dangling, NodeID(v))
			continue
		}
		if wd := wdeg[v]; wd > 0 {
			inv := 1 / wd
			for i, e := range adj {
				t.prob[lo+int64(i)] = g.weight[e.Label] * inv
			}
		} else {
			u := 1 / float64(hi-lo)
			for i := lo; i < hi; i++ {
				t.prob[i] = u
			}
		}
	}
	// Transpose by counting sort on edge targets, in the same
	// row-major enumeration order as the base builder.
	t.tOff = make([]int64, n+1)
	t.tFrom = make([]NodeID, o.m)
	t.tProb = make([]float64, o.m)
	for v := 0; v < n; v++ {
		for _, e := range o.outEdges(NodeID(v)) {
			t.tOff[e.To+1]++
		}
	}
	for v := 1; v <= n; v++ {
		t.tOff[v] += t.tOff[v-1]
	}
	cursor := make([]int64, n)
	for from := 0; from < n; from++ {
		for i, e := range o.outEdges(NodeID(from)) {
			pos := t.tOff[e.To] + cursor[e.To]
			t.tFrom[pos] = NodeID(from)
			t.tProb[pos] = t.prob[t.off[from]+int64(i)]
			cursor[e.To]++
		}
	}
	return t
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

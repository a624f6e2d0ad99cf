package kg

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Triple is one (subject, predicate, object) fact in a mutation batch,
// by name. Names are interned on first sight; predicates equal to the
// store's TypePredicate assign node types instead of edges.
type Triple struct {
	S, P, O string
}

// DefaultCompactThreshold is the overlay size (applied adds + deletes
// since the last base) past which Apply schedules a background
// compaction.
const DefaultCompactThreshold = 4096

// VersionedOptions configures a Versioned store.
type VersionedOptions struct {
	// TypePredicate names the predicate whose triples assign node types
	// rather than edges (mirroring ReadTriples). Empty means every
	// predicate is an edge label.
	TypePredicate string
	// CompactThreshold is the overlay triple count (adds + dels since
	// the base) that triggers background compaction. Zero selects
	// DefaultCompactThreshold; negative disables automatic compaction
	// (Compact can still be called explicitly).
	CompactThreshold int
	// StartEpoch stamps the initial view (default 0). Recovery passes the
	// epoch of the checkpoint it restored, so replayed batches republish
	// the exact epochs they carried when first applied.
	StartEpoch uint64
	// OnCompact, when set, is called with the freshly published flat view
	// after every completed compaction swap (background or explicit),
	// outside the store's internal lock. Durable engines hang checkpoint
	// writing off it: a compaction is exactly the moment a flat snapshot
	// of the current epoch exists.
	OnCompact func(*View)
}

// View is one immutable, epoch-stamped snapshot of the graph. Readers
// pin a View for the whole lifetime of a request: the graph it holds is
// never mutated, so results computed against it are exactly those of a
// from-scratch graph at that epoch no matter how many Applies land
// concurrently.
type View struct {
	// Epoch increases by one per effective Apply. Compaction swaps the
	// representation (overlay → flat base) without changing the epoch,
	// because the readable graph is identical.
	Epoch uint64
	// G is the graph at this epoch.
	G *Graph
	// Adds and Dels count the forward triples applied since G's base
	// was built (zero for a flat base).
	Adds, Dels int
}

// VersionedStats is a point-in-time summary of a Versioned store for
// observability endpoints.
type VersionedStats struct {
	Epoch          uint64
	OverlayAdds    int
	OverlayDels    int
	Rebuilds       uint64        // base CSR rebuilds (compactions) completed
	LastCompaction time.Duration // duration of the most recent compaction, 0 if none
	Compacting     bool          // a background compaction is in flight
}

// Versioned holds a live, epoch-versioned graph: an atomic pointer to
// the current View plus a writer path that publishes copy-on-write
// overlay graphs. Reads (View) are wait-free; Apply and Compact
// serialize on an internal mutex. Safe for concurrent use.
type Versioned struct {
	opt VersionedOptions

	mu  sync.Mutex // serializes Apply and compaction swaps
	cur atomic.Pointer[View]

	compacting  atomic.Bool
	rebuilds    atomic.Uint64
	lastCompact atomic.Int64 // ns
	wg          sync.WaitGroup
}

// NewVersioned wraps base as epoch opt.StartEpoch (0 by default) of a
// live graph store.
func NewVersioned(base *Graph, opt VersionedOptions) *Versioned {
	v := &Versioned{opt: opt}
	view := &View{Epoch: opt.StartEpoch, G: base}
	if base.ov != nil {
		view.Adds, view.Dels = base.ov.adds, base.ov.dels
	}
	v.cur.Store(view)
	return v
}

// View returns the current epoch-stamped snapshot. Wait-free; the
// returned View and its graph are immutable.
func (v *Versioned) View() *View { return v.cur.Load() }

// Stats summarizes the store for observability.
func (v *Versioned) Stats() VersionedStats {
	cur := v.cur.Load()
	return VersionedStats{
		Epoch:          cur.Epoch,
		OverlayAdds:    cur.Adds,
		OverlayDels:    cur.Dels,
		Rebuilds:       v.rebuilds.Load(),
		LastCompaction: time.Duration(v.lastCompact.Load()),
		Compacting:     v.compacting.Load(),
	}
}

// Apply atomically applies a mutation batch — dels first, then adds —
// and publishes the result as a new View with Epoch+1. The base CSR is
// not rebuilt: the new view is a copy-on-write overlay over the current
// base, and earlier views remain valid and unchanged for readers that
// pinned them. Deleting a triple removes the edge and its mirror;
// deletes of unknown names or absent edges are no-ops; adding an edge
// that already exists is a no-op (matching Builder deduplication).
// Deleting a node's only edges leaves the node in place: node and label
// IDs are append-only across epochs.
//
// A batch with no effect (all adds already present, all dels absent)
// returns the current view without bumping the epoch, so warm caches
// keyed by epoch stay warm. Triples with an empty field are rejected.
func (v *Versioned) Apply(adds, dels []Triple) (*View, error) {
	for _, t := range append(append([]Triple(nil), adds...), dels...) {
		if t.S == "" || t.P == "" || t.O == "" {
			return nil, fmt.Errorf("kg: triple with empty field: %+v", t)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.cur.Load()
	mut := newMutator(cur.G)
	for _, t := range dels {
		mut.del(t, v.opt.TypePredicate)
	}
	for _, t := range adds {
		mut.add(t, v.opt.TypePredicate)
	}
	if !mut.dirty {
		return cur, nil
	}
	nv := &View{Epoch: cur.Epoch + 1, G: mut.graph()}
	nv.Adds, nv.Dels = nv.G.ov.adds, nv.G.ov.dels
	v.cur.Store(nv)
	v.maybeCompact(nv)
	return nv, nil
}

// maybeCompact schedules a background compaction when the overlay has
// outgrown the threshold. Caller holds v.mu.
func (v *Versioned) maybeCompact(view *View) {
	threshold := v.opt.CompactThreshold
	if threshold == 0 {
		threshold = DefaultCompactThreshold
	}
	if threshold < 0 || view.Adds+view.Dels < threshold {
		return
	}
	if !v.compacting.CompareAndSwap(false, true) {
		return
	}
	v.wg.Add(1)
	go func() {
		defer v.wg.Done()
		defer v.compacting.Store(false)
		v.compactFrom(view)
	}()
}

// compactFrom folds view's overlay into a flat base and publishes it at
// the unchanged epoch: under mu it re-checks that view is still current,
// stores the flat view, counts and times the rebuild, and then fires
// OnCompact. Returns the published view, or nil when an Apply or Reset
// moved on first and the rebuild is discarded (the next Apply past the
// threshold re-triggers a background one).
func (v *Versioned) compactFrom(view *View) *View {
	start := time.Now()
	flat := view.G.Materialize()
	v.mu.Lock()
	if cur := v.cur.Load(); cur.Epoch != view.Epoch || cur.G != view.G {
		v.mu.Unlock()
		return nil
	}
	nv := &View{Epoch: view.Epoch, G: flat}
	v.cur.Store(nv)
	v.rebuilds.Add(1)
	v.lastCompact.Store(int64(time.Since(start)))
	v.mu.Unlock()
	if v.opt.OnCompact != nil {
		v.opt.OnCompact(nv)
	}
	return nv
}

// Compact synchronously folds the current overlay into a fresh flat
// base and publishes it at the unchanged epoch. Returns the view that
// is current afterwards. Concurrent Applies may win the race; Compact
// simply retries against the newest view until the current graph is
// flat.
func (v *Versioned) Compact() *View {
	for {
		view := v.cur.Load()
		if view.G.ov == nil {
			return view
		}
		if nv := v.compactFrom(view); nv != nil {
			return nv
		}
	}
}

// Reset discards the current state and publishes base as a fresh flat
// view at epoch — a replication follower re-bootstrapping from a new
// primary snapshot after its stream position was truncated away. The
// epoch may only move forward: replicas never expose time travel to
// their readers. Requests that pinned an older view keep it, exactly as
// with Apply; a background compaction racing the reset discards its
// rebuild (the epoch/graph identity check in compactFrom fails).
func (v *Versioned) Reset(base *Graph, epoch uint64) (*View, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := v.cur.Load()
	if epoch < cur.Epoch {
		return nil, fmt.Errorf("kg: reset would rewind epoch %d to %d", cur.Epoch, epoch)
	}
	nv := &View{Epoch: epoch, G: base}
	if base.ov != nil {
		nv.Adds, nv.Dels = base.ov.adds, base.ov.dels
	}
	v.cur.Store(nv)
	return nv, nil
}

// WaitCompaction blocks until any in-flight background compaction has
// finished. Intended for tests and orderly shutdown.
func (v *Versioned) WaitCompaction() { v.wg.Wait() }

// mutator is the working state of one Apply: a mutable copy-on-write
// fork of the previous view's overlay. All maps and slices it touches
// are fresh copies, so previous views stay frozen.
type mutator struct {
	base *Graph // flat base shared by every overlay in the chain
	prev *Graph // graph of the previous view (base or overlay)

	n, m int

	patched     map[NodeID][]Edge
	patchedBits []uint64
	typePatch   map[NodeID]TypeID

	nodeX  *extraNames
	labelX *extraNames
	typeX  *extraNames

	inverse    []LabelID
	labelCount []int64

	adds, dels int
	dirty      bool
}

func newMutator(prev *Graph) *mutator {
	m := &mutator{prev: prev}
	if o := prev.ov; o != nil {
		m.base = o.base
		m.n, m.m = o.n, o.m
		m.patched = make(map[NodeID][]Edge, len(o.patched)+4)
		for k, vv := range o.patched {
			m.patched[k] = vv
		}
		m.patchedBits = slices.Clone(o.patchedBits)
		m.typePatch = make(map[NodeID]TypeID, len(o.typePatch)+1)
		for k, vv := range o.typePatch {
			m.typePatch[k] = vv
		}
		m.nodeX = o.nodeX.clone(m.base.nodes.len())
		m.labelX = o.labelX.clone(m.base.labels.len())
		m.typeX = o.typeX.clone(m.base.types.len())
		m.adds, m.dels = o.adds, o.dels
	} else {
		m.base = prev
		m.n, m.m = prev.NumNodes(), prev.NumEdges()
		m.patched = make(map[NodeID][]Edge, 4)
		m.typePatch = make(map[NodeID]TypeID, 1)
		m.nodeX = (*extraNames)(nil).clone(m.base.nodes.len())
		m.labelX = (*extraNames)(nil).clone(m.base.labels.len())
		m.typeX = (*extraNames)(nil).clone(m.base.types.len())
	}
	m.inverse = append([]LabelID(nil), prev.inverse...)
	m.labelCount = append([]int64(nil), prev.labelCount...)
	return m
}

// node interns a node name, assigning the next dense ID when new.
func (m *mutator) node(name string) NodeID {
	if id := m.base.nodes.lookup(name); id != noID {
		return id
	}
	if id, ok := m.nodeX.lookup(name); ok {
		return id
	}
	m.n++
	m.dirty = true
	return m.nodeX.add(name)
}

func (m *mutator) lookupNode(name string) (NodeID, bool) {
	if id := m.base.nodes.lookup(name); id != noID {
		return id, true
	}
	return m.nodeX.lookup(name)
}

func (m *mutator) lookupLabel(name string) (LabelID, bool) {
	if id := m.base.labels.lookup(name); id != noID {
		return id, true
	}
	return m.labelX.lookup(name)
}

// label interns an edge label, creating its inverse label alongside it
// — the same pairing Builder.Build establishes, so a from-scratch
// rebuild that interns labels in this graph's ID order reproduces the
// identical inverse table.
func (m *mutator) label(name string) LabelID {
	if id, ok := m.lookupLabel(name); ok {
		return id
	}
	id := m.internLabel(name)
	invName := InverseName(name)
	if iv, ok := m.lookupLabel(invName); ok {
		// The inverse name already exists (name is "x⁻¹" for a
		// symmetric base label x). Point at it one-way, like Build.
		m.inverse[id] = iv
	} else {
		iv := m.internLabel(invName)
		m.inverse[id] = iv
		m.inverse[iv] = id
	}
	return id
}

func (m *mutator) internLabel(name string) LabelID {
	id := m.labelX.add(name)
	m.inverse = append(m.inverse, id) // provisional self-inverse; label() fixes it up
	m.labelCount = append(m.labelCount, 0)
	m.dirty = true
	return id
}

func (m *mutator) lookupType(name string) (TypeID, bool) {
	if id := m.base.types.lookup(name); id != noID {
		return id, true
	}
	return m.typeX.lookup(name)
}

func (m *mutator) typeID(name string) TypeID {
	if id := m.base.types.lookup(name); id != noID {
		return id
	}
	if id, ok := m.typeX.lookup(name); ok {
		return id
	}
	m.dirty = true
	return m.typeX.add(name)
}

// adjOf returns the effective adjacency of node v in the working state.
func (m *mutator) adjOf(v NodeID) []Edge {
	return patchedAdjacency(m.base, m.patched, m.patchedBits, v)
}

// patch replaces node v's adjacency in the working state.
func (m *mutator) patch(v NodeID, adj []Edge) {
	m.patched[v] = adj
	if w := int(v / 64); w >= len(m.patchedBits) {
		m.patchedBits = append(m.patchedBits, make([]uint64, w+1-len(m.patchedBits))...)
	}
	m.patchedBits[v/64] |= 1 << (v % 64)
}

// insertEdge inserts (from, l, to) at its sorted position, reporting
// whether the adjacency changed. The previous slice is never mutated.
func (m *mutator) insertEdge(from NodeID, l LabelID, to NodeID) bool {
	adj := m.adjOf(from)
	i := sort.Search(len(adj), func(i int) bool {
		e := adj[i]
		return e.Label > l || (e.Label == l && e.To >= to)
	})
	if i < len(adj) && adj[i].Label == l && adj[i].To == to {
		return false
	}
	na := make([]Edge, 0, len(adj)+1)
	na = append(na, adj[:i]...)
	na = append(na, Edge{Label: l, To: to})
	na = append(na, adj[i:]...)
	m.patch(from, na)
	m.m++
	m.labelCount[l]++
	m.dirty = true
	return true
}

// removeEdge removes (from, l, to) if present, reporting whether the
// adjacency changed. The previous slice is never mutated.
func (m *mutator) removeEdge(from NodeID, l LabelID, to NodeID) bool {
	adj := m.adjOf(from)
	i := sort.Search(len(adj), func(i int) bool {
		e := adj[i]
		return e.Label > l || (e.Label == l && e.To >= to)
	})
	if i >= len(adj) || adj[i].Label != l || adj[i].To != to {
		return false
	}
	na := make([]Edge, 0, len(adj)-1)
	na = append(na, adj[:i]...)
	na = append(na, adj[i+1:]...)
	m.patch(from, na)
	m.m--
	m.labelCount[l]--
	m.dirty = true
	return true
}

// add applies one added triple: a type assignment when the predicate is
// typePred, otherwise the edge plus its mirror under the inverse label.
// Interning order (subject, predicate, object) matches Builder.AddEdge
// so a replayed from-scratch build assigns identical IDs.
func (m *mutator) add(t Triple, typePred string) {
	if typePred != "" && t.P == typePred {
		s := m.node(t.S)
		m.node(t.O) // type objects are interned as nodes, as ReadTriples does
		tt := m.typeID(t.O)
		if m.effectiveType(s) != tt {
			m.typePatch[s] = tt
			m.dirty = true
		}
		return
	}
	s := m.node(t.S)
	l := m.label(t.P)
	o := m.node(t.O)
	if m.insertEdge(s, l, o) {
		m.adds++
	}
	m.insertEdge(o, m.inverse[l], s)
}

// del applies one deleted triple; unknown names and absent edges are
// no-ops. Deleting a type triple clears the node's type if it matches.
func (m *mutator) del(t Triple, typePred string) {
	if typePred != "" && t.P == typePred {
		s, ok1 := m.lookupNode(t.S)
		tt, ok2 := m.lookupType(t.O)
		if ok1 && ok2 && m.effectiveType(s) == tt {
			m.typePatch[s] = NoType
			m.dirty = true
		}
		return
	}
	s, ok1 := m.lookupNode(t.S)
	l, ok2 := m.lookupLabel(t.P)
	o, ok3 := m.lookupNode(t.O)
	if !ok1 || !ok2 || !ok3 {
		return
	}
	if m.removeEdge(s, l, o) {
		m.dels++
	}
	m.removeEdge(o, m.inverse[l], s)
}

func (m *mutator) effectiveType(n NodeID) TypeID {
	if t, ok := m.typePatch[n]; ok {
		return t
	}
	if int(n) < len(m.base.nodeType) {
		return m.base.nodeType[n]
	}
	return NoType
}

// graph freezes the working state into a published overlay Graph,
// recomputing the global label weights with Builder.Build's exact
// expression (every weight depends on the edge total, so all change on
// any mutation).
func (m *mutator) graph() *Graph {
	weight := make([]float64, len(m.inverse))
	total := float64(m.m)
	for l := range weight {
		if total > 0 {
			weight[l] = 1 - float64(m.labelCount[l])/total
		}
	}
	g := &Graph{
		nodes:      m.base.nodes,
		labels:     m.base.labels,
		types:      m.base.types,
		nodeType:   m.base.nodeType,
		inverse:    m.inverse,
		labelCount: m.labelCount,
		weight:     weight,
	}
	g.ov = &overlay{
		g:           g,
		base:        m.base,
		n:           m.n,
		m:           m.m,
		patched:     m.patched,
		patchedBits: m.patchedBits,
		typePatch:   m.typePatch,
		nodeX:       m.nodeX,
		labelX:      m.labelX,
		typeX:       m.typeX,
		adds:        m.adds,
		dels:        m.dels,
	}
	return g
}

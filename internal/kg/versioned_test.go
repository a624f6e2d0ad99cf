package kg

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// refState maintains a from-scratch reference for Versioned tests: the
// live triple multiset plus explicit interning orders mirroring the
// store's append-only ID assignment (base names in base order, new names
// in apply order). build replays the whole state through a Builder, so
// every derived array — CSR, label counts, weights, wdeg, transitions —
// is recomputed from raw triples by the independent batch pipeline.
type refState struct {
	typePred   string
	nodeOrder  []string
	labelOrder []string
	typeOrder  []string
	symmetric  map[string]bool
	triples    [][3]string
	seenNode   map[string]bool
	seenLabel  map[string]bool
	seenType   map[string]bool
}

func newRefState(typePred string) *refState {
	return &refState{
		typePred:  typePred,
		symmetric: map[string]bool{},
		seenNode:  map[string]bool{},
		seenLabel: map[string]bool{},
		seenType:  map[string]bool{},
	}
}

func (r *refState) node(name string) {
	if !r.seenNode[name] {
		r.seenNode[name] = true
		r.nodeOrder = append(r.nodeOrder, name)
	}
}

func (r *refState) label(name string) {
	if r.seenLabel[name] {
		return
	}
	r.seenLabel[name] = true
	r.labelOrder = append(r.labelOrder, name)
	if !r.symmetric[name] {
		inv := InverseName(name)
		if !r.seenLabel[inv] {
			r.seenLabel[inv] = true
			r.labelOrder = append(r.labelOrder, inv)
		}
	}
}

// add records one triple, interning names in the same (S, P, O) order
// the live mutator uses.
func (r *refState) add(s, p, o string) {
	if r.typePred != "" && p == r.typePred {
		r.node(s)
		r.node(o)
		if !r.seenType[o] {
			r.seenType[o] = true
			r.typeOrder = append(r.typeOrder, o)
		}
	} else {
		r.node(s)
		r.label(p)
		r.node(o)
	}
	r.triples = append(r.triples, [3]string{s, p, o})
}

// del drops the triple in either orientation (a fact and its mirror are
// one edge pair). Names stay interned: IDs are append-only.
func (r *refState) del(s, p, o string) {
	inv := InverseName(p)
	if r.symmetric[p] {
		inv = p
	}
	keep := r.triples[:0]
	for _, tr := range r.triples {
		if tr == [3]string{s, p, o} || tr == [3]string{o, inv, s} {
			continue
		}
		keep = append(keep, tr)
	}
	r.triples = keep
}

// build replays the state from scratch: pre-intern dictionaries in the
// recorded order, then feed every triple (and its mirror) through the
// full sort + dedup + derived-data pipeline.
func (r *refState) build() *Graph {
	b := NewBuilder(2 * len(r.triples)).DisableInverses()
	for _, nm := range r.nodeOrder {
		b.Node(nm)
	}
	for _, ln := range r.labelOrder {
		b.Label(ln)
		if r.symmetric[ln] {
			b.Symmetric(ln)
		}
	}
	for _, tn := range r.typeOrder {
		b.Type(tn)
	}
	for _, tr := range r.triples {
		if r.typePred != "" && tr[1] == r.typePred {
			b.SetType(tr[0], tr[2])
			continue
		}
		b.AddEdge(tr[0], tr[1], tr[2])
		inv := InverseName(tr[1])
		if r.symmetric[tr[1]] {
			inv = tr[1]
		}
		b.AddEdge(tr[2], inv, tr[0])
	}
	return b.Build()
}

// requireSameGraph asserts bitwise equality of two graphs under the
// whole public read API, including transition probabilities, one gather
// step, and one blocked step at every block width.
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
		got.NumLabels() != want.NumLabels() || got.NumTypes() != want.NumTypes() {
		t.Fatalf("size mismatch: got %s, want %s", got.Stats(), want.Stats())
	}
	for l := 0; l < want.NumLabels(); l++ {
		ll := LabelID(l)
		if got.LabelName(ll) != want.LabelName(ll) {
			t.Fatalf("label %d name: got %q, want %q", l, got.LabelName(ll), want.LabelName(ll))
		}
		if got.InverseLabel(ll) != want.InverseLabel(ll) {
			t.Fatalf("label %d inverse: got %d, want %d", l, got.InverseLabel(ll), want.InverseLabel(ll))
		}
		if got.LabelCount(ll) != want.LabelCount(ll) {
			t.Fatalf("label %q count: got %d, want %d", want.LabelName(ll), got.LabelCount(ll), want.LabelCount(ll))
		}
		if got.LabelWeight(ll) != want.LabelWeight(ll) {
			t.Fatalf("label %q weight: got %v, want %v", want.LabelName(ll), got.LabelWeight(ll), want.LabelWeight(ll))
		}
	}
	for ty := 0; ty < want.NumTypes(); ty++ {
		if got.TypeName(TypeID(ty)) != want.TypeName(TypeID(ty)) {
			t.Fatalf("type %d name: got %q, want %q", ty, got.TypeName(TypeID(ty)), want.TypeName(TypeID(ty)))
		}
	}
	for n := 0; n < want.NumNodes(); n++ {
		nn := NodeID(n)
		if got.NodeName(nn) != want.NodeName(nn) {
			t.Fatalf("node %d name: got %q, want %q", n, got.NodeName(nn), want.NodeName(nn))
		}
		if id, ok := got.NodeByName(want.NodeName(nn)); !ok || id != nn {
			t.Fatalf("NodeByName(%q): got (%d, %t), want (%d, true)", want.NodeName(nn), id, ok, n)
		}
		if got.TypeOf(nn) != want.TypeOf(nn) {
			t.Fatalf("node %q type: got %d, want %d", want.NodeName(nn), got.TypeOf(nn), want.TypeOf(nn))
		}
		ga, wa := got.OutEdges(nn), want.OutEdges(nn)
		if len(ga) != len(wa) {
			t.Fatalf("node %q degree: got %d, want %d", want.NodeName(nn), len(ga), len(wa))
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("node %q edge %d: got %+v, want %+v", want.NodeName(nn), i, ga[i], wa[i])
			}
		}
		if got.WeightedOutDegree(nn) != want.WeightedOutDegree(nn) {
			t.Fatalf("node %q wdeg: got %v, want %v", want.NodeName(nn), got.WeightedOutDegree(nn), want.WeightedOutDegree(nn))
		}
	}
	gt, wt := got.Transitions(), want.Transitions()
	for n := 0; n < want.NumNodes(); n++ {
		if !reflect.DeepEqual(gt.Probs(NodeID(n)), wt.Probs(NodeID(n))) {
			t.Fatalf("node %q probs: got %v, want %v", want.NodeName(NodeID(n)), gt.Probs(NodeID(n)), wt.Probs(NodeID(n)))
		}
	}
	p := make([]float64, want.NumNodes())
	for i := range p {
		p[i] = 1 / float64(i+1)
	}
	gn := make([]float64, len(p))
	wn := make([]float64, len(p))
	gd := gt.GatherStep(gn, p, 0.8)
	wd := wt.GatherStep(wn, p, 0.8)
	if gd != wd || !reflect.DeepEqual(gn, wn) {
		t.Fatalf("gather step mismatch: dangling %v vs %v", gd, wd)
	}
	for b := 1; b <= MaxGatherBlock; b++ {
		pm := make([]float64, len(p)*b)
		for i := range pm {
			pm[i] = 1 / float64(i+b)
		}
		gm, wm := make([]float64, len(pm)), make([]float64, len(pm))
		gdm, wdm := make([]float64, b), make([]float64, b)
		wt.GatherStepMulti(wm, pm, 0.8, b, wdm)
		gt.GatherStepMulti(gm, pm, 0.8, b, gdm)
		if !reflect.DeepEqual(gdm, wdm) || !reflect.DeepEqual(gm, wm) {
			t.Fatalf("blocked gather step mismatch at b=%d", b)
		}
	}
}

// politicsRef seeds a small typed graph in the spirit of Figure 1.
func politicsRef() *refState {
	r := newRefState("isA")
	for _, tr := range [][3]string{
		{"Merkel", "isA", "politician"},
		{"Obama", "isA", "politician"},
		{"Hollande", "isA", "politician"},
		{"Merkel", "studied", "Physics"},
		{"Obama", "studied", "Law"},
		{"Hollande", "studied", "Law"},
		{"Merkel", "partyOf", "CDU"},
		{"Obama", "partyOf", "Democrats"},
		{"Merkel", "bornIn", "Hamburg"},
		{"Obama", "bornIn", "Honolulu"},
		{"Hollande", "bornIn", "Rouen"},
		{"Obama", "hasChild", "Malia"},
		{"Hollande", "hasChild", "Thomas"},
	} {
		r.add(tr[0], tr[1], tr[2])
	}
	return r
}

func applyOrFatal(t *testing.T, v *Versioned, adds, dels []Triple) *View {
	t.Helper()
	view, err := v.Apply(adds, dels)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return view
}

func TestVersionedApplyMatchesFromScratch(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: -1})

	// Batch 1: adds over existing nodes and labels.
	view := applyOrFatal(t, v, []Triple{
		{"Merkel", "hasChild", "Nobody"},
		{"Hollande", "partyOf", "PS"},
	}, nil)
	ref.add("Merkel", "hasChild", "Nobody")
	ref.add("Hollande", "partyOf", "PS")
	if view.Epoch != 1 {
		t.Fatalf("epoch after first apply: got %d, want 1", view.Epoch)
	}
	requireSameGraph(t, view.G, ref.build())

	// Batch 2: new nodes, a new label, and a type assignment for a new
	// node.
	view = applyOrFatal(t, v, []Triple{
		{"Macron", "isA", "politician"},
		{"Macron", "studied", "Philosophy"},
		{"Macron", "awarded", "LegionOfHonour"},
		{"Obama", "awarded", "NobelPeacePrize"},
	}, nil)
	ref.add("Macron", "isA", "politician")
	ref.add("Macron", "studied", "Philosophy")
	ref.add("Macron", "awarded", "LegionOfHonour")
	ref.add("Obama", "awarded", "NobelPeacePrize")
	requireSameGraph(t, view.G, ref.build())

	// Batch 3: deletes — a base edge, an overlay-added edge, an absent
	// edge, and an unknown name (the last two are no-ops).
	view = applyOrFatal(t, v, nil, []Triple{
		{"Merkel", "studied", "Physics"},
		{"Macron", "awarded", "LegionOfHonour"},
		{"Merkel", "studied", "Law"},
		{"Nessie", "studied", "Law"},
	})
	ref.del("Merkel", "studied", "Physics")
	ref.del("Macron", "awarded", "LegionOfHonour")
	if view.Epoch != 3 {
		t.Fatalf("epoch after third apply: got %d, want 3", view.Epoch)
	}
	requireSameGraph(t, view.G, ref.build())

	// Batch 4: mixed adds + dels in one batch, including deleting a
	// node's last edge (the node must survive with a zero degree) and
	// deleting via the inverse orientation.
	view = applyOrFatal(t, v,
		[]Triple{{"Merkel", "studied", "QuantumChemistry"}},
		[]Triple{
			{"Nobody", InverseName("hasChild"), "Merkel"},
			{"Macron", "studied", "Philosophy"},
		})
	ref.add("Merkel", "studied", "QuantumChemistry")
	ref.del("Merkel", "hasChild", "Nobody")
	ref.del("Macron", "studied", "Philosophy")
	requireSameGraph(t, view.G, ref.build())

	if got := v.Stats(); got.Epoch != 4 || got.OverlayAdds == 0 || got.OverlayDels == 0 {
		t.Fatalf("stats after batches: %+v", got)
	}
}

func TestVersionedSymmetricLabelMirrorsUnderSameLabel(t *testing.T) {
	r := newRefState("")
	r.symmetric["spouse"] = true
	r.add("A", "spouse", "B")
	r.add("A", "knows", "C")
	v := NewVersioned(r.build(), VersionedOptions{CompactThreshold: -1})

	view := applyOrFatal(t, v, []Triple{{"C", "spouse", "D"}}, nil)
	r.add("C", "spouse", "D")
	requireSameGraph(t, view.G, r.build())

	// The mirror of a symmetric edge carries the same label.
	g := view.G
	c, _ := g.NodeByName("C")
	d, _ := g.NodeByName("D")
	sp, _ := g.LabelByName("spouse")
	if !hasEdge(g, d, sp, c) {
		t.Fatalf("symmetric mirror (D, spouse, C) missing")
	}

	view = applyOrFatal(t, v, nil, []Triple{{"A", "spouse", "B"}})
	r.del("A", "spouse", "B")
	requireSameGraph(t, view.G, r.build())
}

func TestVersionedCompactionPreservesGraphAndEpoch(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: -1})
	applyOrFatal(t, v, []Triple{
		{"Macron", "isA", "politician"},
		{"Macron", "studied", "Philosophy"},
	}, []Triple{{"Merkel", "studied", "Physics"}})
	ref.add("Macron", "isA", "politician")
	ref.add("Macron", "studied", "Philosophy")
	ref.del("Merkel", "studied", "Physics")

	before := v.View()
	after := v.Compact()
	if after.Epoch != before.Epoch {
		t.Fatalf("compaction moved the epoch: %d -> %d", before.Epoch, after.Epoch)
	}
	if after.G.ov != nil {
		t.Fatalf("compacted graph still has an overlay")
	}
	if after.Adds != 0 || after.Dels != 0 {
		t.Fatalf("compacted view still reports overlay counts: %+v", after)
	}
	requireSameGraph(t, after.G, ref.build())
	requireSameGraph(t, before.G, ref.build()) // pinned pre-compaction view unaffected
	if st := v.Stats(); st.Rebuilds != 1 || st.LastCompaction <= 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}

	// A further apply builds a fresh overlay on the compacted base.
	view := applyOrFatal(t, v, []Triple{{"Macron", "partyOf", "LREM"}}, nil)
	ref.add("Macron", "partyOf", "LREM")
	requireSameGraph(t, view.G, ref.build())
}

func TestVersionedBackgroundCompaction(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: 1})
	view := applyOrFatal(t, v, []Triple{{"Merkel", "knows", "Obama"}}, nil)
	ref.add("Merkel", "knows", "Obama")
	v.WaitCompaction()
	if st := v.Stats(); st.Rebuilds != 1 {
		t.Fatalf("background compaction did not run: %+v", st)
	}
	cur := v.View()
	if cur.Epoch != view.Epoch || cur.G.ov != nil {
		t.Fatalf("background compaction result: epoch %d (want %d), overlay %v", cur.Epoch, view.Epoch, cur.G.ov != nil)
	}
	requireSameGraph(t, cur.G, ref.build())
}

func TestVersionedViewPinning(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: -1})
	applyOrFatal(t, v, []Triple{{"Merkel", "knows", "Obama"}}, nil)
	ref.add("Merkel", "knows", "Obama")
	pinnedRef := ref.build()
	pinned := v.View()

	applyOrFatal(t, v, []Triple{{"Obama", "knows", "Hollande"}}, []Triple{{"Merkel", "knows", "Obama"}})
	v.Compact()

	// The pinned view still reads exactly its epoch's graph.
	requireSameGraph(t, pinned.G, pinnedRef)
}

func TestVersionedNoOpBatchKeepsEpoch(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA"})
	before := v.View()
	view := applyOrFatal(t, v,
		[]Triple{{"Merkel", "studied", "Physics"}}, // already present
		[]Triple{{"Merkel", "studied", "Law"}},     // absent
	)
	if view != before {
		t.Fatalf("no-op batch published a new view (epoch %d)", view.Epoch)
	}
	if _, err := v.Apply([]Triple{{"", "studied", "Law"}}, nil); err == nil {
		t.Fatalf("empty subject accepted")
	}
}

func TestVersionedSnapshotRoundTripOfOverlay(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: -1})
	view := applyOrFatal(t, v, []Triple{
		{"Macron", "isA", "politician"},
		{"Macron", "studied", "Philosophy"},
	}, []Triple{{"Obama", "studied", "Law"}})
	ref.add("Macron", "isA", "politician")
	ref.add("Macron", "studied", "Philosophy")
	ref.del("Obama", "studied", "Law")

	var buf bytes.Buffer
	if err := view.G.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	requireSameGraph(t, back, ref.build())
}

// TestVersionedConcurrentReaders drives reads, applies, and compactions
// concurrently; run under -race. Each reader pins one view and checks a
// structural invariant that would break on a torn graph.
func TestVersionedConcurrentReaders(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: 3})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := v.View()
				g := view.G
				// Count edges through the public API and through the
				// transition matrix; both must agree with NumEdges on
				// a consistent snapshot.
				total := 0
				for n := 0; n < g.NumNodes(); n++ {
					total += len(g.OutEdges(NodeID(n)))
				}
				if total != g.NumEdges() {
					t.Errorf("torn view at epoch %d: %d edges enumerated, NumEdges %d", view.Epoch, total, g.NumEdges())
					return
				}
				tr := g.Transitions()
				p := make([]float64, g.NumNodes())
				for i := range p {
					p[i] = 1 / float64(len(p))
				}
				next := make([]float64, len(p))
				tr.GatherStep(next, p, 0.8)
			}
		}()
	}

	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("N%d", i)
		o := fmt.Sprintf("N%d", i+1)
		if _, err := v.Apply([]Triple{{s, "links", o}}, nil); err != nil {
			t.Errorf("Apply: %v", err)
			break
		}
		if i%7 == 3 {
			if _, err := v.Apply(nil, []Triple{{s, "links", o}}); err != nil {
				t.Errorf("Apply del: %v", err)
				break
			}
		}
	}
	v.Compact()
	close(stop)
	wg.Wait()
	v.WaitCompaction()
}

// TestVersionedReset: Reset republishes an arbitrary base at a forward
// epoch (the replication follower's snapshot-resync path), keeps pinned
// views untouched, refuses epoch rewinds, and leaves the store applying
// batches normally afterwards.
func TestVersionedReset(t *testing.T) {
	ref := politicsRef()
	v := NewVersioned(ref.build(), VersionedOptions{TypePredicate: "isA", CompactThreshold: -1})
	applyOrFatal(t, v, []Triple{{"Merkel", "hasChild", "Nobody"}}, nil)
	pinned := v.View()
	if pinned.Epoch != 1 {
		t.Fatalf("epoch before reset: got %d, want 1", pinned.Epoch)
	}

	ref2 := politicsRef()
	ref2.add("Macron", "isA", "politician")
	ref2.add("Macron", "studied", "Philosophy")
	nv, err := v.Reset(ref2.build(), 7)
	if err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if nv.Epoch != 7 {
		t.Fatalf("epoch after reset: got %d, want 7", nv.Epoch)
	}
	requireSameGraph(t, v.View().G, ref2.build())

	// The pinned pre-reset view is immutable: same epoch, same graph.
	if pinned.Epoch != 1 {
		t.Fatalf("pinned view's epoch changed to %d", pinned.Epoch)
	}
	ref.add("Merkel", "hasChild", "Nobody") // what the pinned view held
	requireSameGraph(t, pinned.G, ref.build())

	// Epochs only move forward, even through Reset.
	if _, err := v.Reset(politicsRef().build(), 3); err == nil {
		t.Fatal("Reset accepted an epoch rewind from 7 to 3")
	}

	// Post-reset applies continue the new epoch line.
	view := applyOrFatal(t, v, []Triple{{"Macron", "partyOf", "LREM"}}, nil)
	if view.Epoch != 8 {
		t.Fatalf("epoch after post-reset apply: got %d, want 8", view.Epoch)
	}
	ref2.add("Macron", "partyOf", "LREM")
	requireSameGraph(t, view.G, ref2.build())
}

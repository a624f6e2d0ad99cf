package kg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1 builds the running example of the paper (Figure 1): politicians
// with studied and hasChild edges.
func figure1() *Graph {
	b := NewBuilder(16)
	b.SetType("Merkel", "person")
	b.SetType("Obama", "person")
	b.SetType("Putin", "person")
	b.SetType("Renzi", "person")
	b.SetType("Hollande", "person")
	b.AddEdge("Merkel", "studied", "Physics")
	b.AddEdge("Obama", "studied", "Law")
	b.AddEdge("Putin", "studied", "Law")
	b.AddEdge("Renzi", "studied", "Law")
	b.AddEdge("Hollande", "studied", "Law")
	b.AddEdge("Obama", "hasChild", "Malia")
	b.AddEdge("Putin", "hasChild", "Mariya")
	b.AddEdge("Putin", "hasChild", "Yecaterina")
	b.AddEdge("Renzi", "hasChild", "Francesca")
	b.AddEdge("Renzi", "hasChild", "Emanuele")
	b.AddEdge("Renzi", "hasChild", "Ester")
	b.AddEdge("Hollande", "hasChild", "Thomas")
	b.AddEdge("Hollande", "hasChild", "Clémence")
	b.AddEdge("Hollande", "hasChild", "Julien")
	b.AddEdge("Hollande", "hasChild", "Flora")
	return b.Build()
}

func TestInverseName(t *testing.T) {
	if got := InverseName("leaderOf"); got != "leaderOf⁻¹" {
		t.Fatalf("InverseName = %q", got)
	}
	if got := InverseName(InverseName("leaderOf")); got != "leaderOf" {
		t.Fatalf("double inverse = %q, want leaderOf", got)
	}
}

func TestBuildCounts(t *testing.T) {
	g := figure1()
	// 15 forward edges + 15 inverses.
	if g.NumEdges() != 30 {
		t.Fatalf("NumEdges = %d, want 30", g.NumEdges())
	}
	// studied, hasChild + 2 inverses.
	if g.NumLabels() != 4 {
		t.Fatalf("NumLabels = %d, want 4", g.NumLabels())
	}
}

func TestReverseEdgesExist(t *testing.T) {
	g := figure1()
	physics, _ := g.NodeByName("Physics")
	merkel, _ := g.NodeByName("Merkel")
	studied, _ := g.LabelByName("studied")
	inv := g.InverseLabel(studied)
	if !hasEdge(g, physics, inv, merkel) {
		t.Fatal("reverse edge Physics --studied⁻¹--> Merkel missing")
	}
	if g.InverseLabel(inv) != studied {
		t.Fatal("InverseLabel is not an involution")
	}
	if g.IsInverse(studied) {
		t.Fatal("studied should not be an inverse label")
	}
	if !g.IsInverse(inv) {
		t.Fatal("studied⁻¹ should be an inverse label")
	}
}

func TestSymmetricLabel(t *testing.T) {
	b := NewBuilder(2)
	b.Symmetric("spouse")
	b.AddEdge("a", "spouse", "b")
	g := b.Build()
	spouse, _ := g.LabelByName("spouse")
	if g.InverseLabel(spouse) != spouse {
		t.Fatal("symmetric label should be its own inverse")
	}
	a, _ := g.NodeByName("a")
	bn, _ := g.NodeByName("b")
	if !hasEdge(g, bn, spouse, a) {
		t.Fatal("mirrored symmetric edge missing")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestOutEdgesByLabel(t *testing.T) {
	g := figure1()
	putin, _ := g.NodeByName("Putin")
	hasChild, _ := g.LabelByName("hasChild")
	kids := g.OutEdgesByLabel(putin, hasChild)
	if len(kids) != 2 {
		t.Fatalf("Putin has %d hasChild edges, want 2", len(kids))
	}
	studied, _ := g.LabelByName("studied")
	if n := len(g.OutEdgesByLabel(putin, studied)); n != 1 {
		t.Fatalf("Putin has %d studied edges, want 1", n)
	}
	merkel, _ := g.NodeByName("Merkel")
	if n := len(g.OutEdgesByLabel(merkel, hasChild)); n != 0 {
		t.Fatalf("Merkel has %d hasChild edges, want 0", n)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := figure1()
	for n := 0; n < g.NumNodes(); n++ {
		adj := g.OutEdges(NodeID(n))
		for i := 1; i < len(adj); i++ {
			a, b := adj[i-1], adj[i]
			if a.Label > b.Label || (a.Label == b.Label && a.To > b.To) {
				t.Fatalf("node %d adjacency unsorted at %d: %v then %v", n, i, a, b)
			}
		}
	}
}

func TestDeduplicateEdges(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge("a", "p", "b")
	b.AddEdge("a", "p", "b")
	g := b.Build()
	if g.NumEdges() != 2 { // one forward + one inverse
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestLabelFrequencyAndWeight(t *testing.T) {
	g := figure1()
	hasChild, _ := g.LabelByName("hasChild")
	// 10 of 30 edges are hasChild. Compare against the same runtime float
	// expression the graph uses (constant folding is more precise).
	wantFreq := float64(10) / float64(30)
	if got := float64(g.LabelCount(hasChild)) / float64(g.NumEdges()); got != wantFreq {
		t.Fatalf("|E_hasChild|/|E| = %v, want 1/3", got)
	}
	if got := g.LabelWeight(hasChild); got != 1-wantFreq {
		t.Fatalf("LabelWeight(hasChild) = %v", got)
	}
	var sum int64
	for l := 0; l < g.NumLabels(); l++ {
		sum += g.LabelCount(LabelID(l))
	}
	if sum != int64(g.NumEdges()) {
		t.Fatalf("label counts sum to %d, want %d", sum, g.NumEdges())
	}
}

func TestWeightedOutDegreeMatchesManualSum(t *testing.T) {
	g := figure1()
	for n := 0; n < g.NumNodes(); n++ {
		want := 0.0
		for _, e := range g.OutEdges(NodeID(n)) {
			want += g.LabelWeight(e.Label)
		}
		if got := g.WeightedOutDegree(NodeID(n)); got != want {
			t.Fatalf("WeightedOutDegree(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestTypes(t *testing.T) {
	g := figure1()
	merkel, _ := g.NodeByName("Merkel")
	if g.TypeName(g.TypeOf(merkel)) != "person" {
		t.Fatalf("TypeOf(Merkel) = %q", g.TypeName(g.TypeOf(merkel)))
	}
	physics, _ := g.NodeByName("Physics")
	if g.TypeOf(physics) != NoType {
		t.Fatal("Physics should have no type")
	}
	if g.TypeName(NoType) != "" {
		t.Fatal("TypeName(NoType) should be empty")
	}
	people := g.NodesWithType(g.TypeOf(merkel))
	if len(people) != 5 {
		t.Fatalf("NodesWithType(person) = %d nodes, want 5", len(people))
	}
}

func TestLabelsOf(t *testing.T) {
	g := figure1()
	merkel, _ := g.NodeByName("Merkel")
	obama, _ := g.NodeByName("Obama")
	labels := g.LabelsOf([]NodeID{merkel, obama})
	names := make(map[string]bool)
	for _, l := range labels {
		names[g.LabelName(l)] = true
	}
	if !names["studied"] || !names["hasChild"] {
		t.Fatalf("LabelsOf = %v", names)
	}
	if names["studied⁻¹"] {
		t.Fatal("query nodes have no incoming studied edges")
	}
}

// hasEdge reports whether the edge (n, l, to) exists.
func hasEdge(g *Graph, n NodeID, l LabelID, to NodeID) bool {
	for _, e := range g.OutEdgesByLabel(n, l) {
		if e.To == to {
			return true
		}
	}
	return false
}

func TestHasEdge(t *testing.T) {
	g := figure1()
	merkel, _ := g.NodeByName("Merkel")
	physics, _ := g.NodeByName("Physics")
	law, _ := g.NodeByName("Law")
	studied, _ := g.LabelByName("studied")
	if !hasEdge(g, merkel, studied, physics) {
		t.Fatal("Merkel studied Physics missing")
	}
	if hasEdge(g, merkel, studied, law) {
		t.Fatal("Merkel studied Law should not exist")
	}
}

func TestIsolatedNode(t *testing.T) {
	b := NewBuilder(2)
	b.Node("loner")
	b.AddEdge("a", "p", "b")
	g := b.Build()
	loner, ok := g.NodeByName("loner")
	if !ok {
		t.Fatal("loner not interned")
	}
	if len(g.OutEdges(loner)) != 0 {
		t.Fatalf("loner degree = %d", len(g.OutEdges(loner)))
	}
	if g.WeightedOutDegree(loner) != 0 {
		t.Fatal("loner weighted degree should be 0")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: %s", g.Stats())
	}
}

// Property: for random graphs, every forward edge has its inverse and the
// total edge count is preserved under the involution.
func TestInverseInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(64)
		nNodes := 2 + rng.Intn(20)
		labels := []string{"p", "q", "r"}
		for i := 0; i < 60; i++ {
			from := nodeName(rng.Intn(nNodes))
			to := nodeName(rng.Intn(nNodes))
			b.AddEdge(from, labels[rng.Intn(len(labels))], to)
		}
		g := b.Build()
		for n := 0; n < g.NumNodes(); n++ {
			for _, e := range g.OutEdges(NodeID(n)) {
				if !hasEdge(g, e.To, g.InverseLabel(e.Label), NodeID(n)) {
					return false
				}
				if g.InverseLabel(g.InverseLabel(e.Label)) != e.Label {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LabelWeight is in [0, 1) for present labels and weights plus
// frequencies always sum to 1 per label.
func TestWeightBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(32)
		for i := 0; i < 1+rng.Intn(50); i++ {
			b.AddEdge(nodeName(rng.Intn(10)), nodeName(rng.Intn(3)), nodeName(rng.Intn(10)))
		}
		g := b.Build()
		for l := 0; l < g.NumLabels(); l++ {
			w := g.LabelWeight(LabelID(l))
			fq := float64(g.LabelCount(LabelID(l))) / float64(g.NumEdges())
			if w < 0 || w >= 1 || w+fq != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string { return string(rune('a' + i)) }

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type e struct{ s, p, o string }
	edges := make([]e, 1<<15)
	for i := range edges {
		edges[i] = e{
			s: nodeName(rng.Intn(26)) + nodeName(rng.Intn(26)),
			p: nodeName(rng.Intn(8)),
			o: nodeName(rng.Intn(26)) + nodeName(rng.Intn(26)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(len(edges))
		for _, ed := range edges {
			bld.AddEdge(ed.s, ed.p, ed.o)
		}
		bld.Build()
	}
}

func BenchmarkOutEdgesByLabel(b *testing.B) {
	g := figure1()
	putin, _ := g.NodeByName("Putin")
	hasChild, _ := g.LabelByName("hasChild")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.OutEdgesByLabel(putin, hasChild)) != 2 {
			b.Fatal("wrong count")
		}
	}
}

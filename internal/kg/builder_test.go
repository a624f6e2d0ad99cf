package kg

import (
	"errors"
	"io"
	"testing"
)

// triples feeds ss (flattened s, p, o names) to ReadTriples.
func triples(ss ...string) func() (Triple, error) {
	return func() (Triple, error) {
		if len(ss) == 0 {
			return Triple{}, io.EOF
		}
		t := Triple{S: ss[0], P: ss[1], O: ss[2]}
		ss = ss[3:]
		return t, nil
	}
}

func mustReadTriples(t *testing.T, typePredicate string, ss ...string) *Graph {
	t.Helper()
	g, err := ReadTriples(triples(ss...), typePredicate)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReadTriples(t *testing.T) {
	g := mustReadTriples(t, "type",
		"merkel", "type", "politician",
		"merkel", "leaderOf", "germany",
		"obama", "type", "politician",
		"obama", "leaderOf", "usa",
		"germany", "type", "country")
	merkel, ok := g.NodeByName("merkel")
	if !ok {
		t.Fatal("merkel missing")
	}
	if g.TypeName(g.TypeOf(merkel)) != "politician" {
		t.Fatalf("TypeOf(merkel) = %q", g.TypeName(g.TypeOf(merkel)))
	}
	leaderOf, ok := g.LabelByName("leaderOf")
	if !ok {
		t.Fatal("leaderOf missing")
	}
	if int(g.LabelCount(leaderOf)) != 2 {
		t.Fatalf("leaderOf count = %d, want 2", g.LabelCount(leaderOf))
	}
	// type triples must not appear as edges.
	if _, ok := g.LabelByName("type"); ok {
		t.Fatal("type predicate leaked into edge labels")
	}
	// Reverse edges exist.
	germany, _ := g.NodeByName("germany")
	if !hasEdge(g, germany, g.InverseLabel(leaderOf), merkel) {
		t.Fatal("reverse edge missing after ReadTriples")
	}
}

// TestReadTriplesCounts: six statements over three predicates give six
// edges each way, three labels plus their inverses, and per-predicate
// counts.
func TestReadTriplesCounts(t *testing.T) {
	g := mustReadTriples(t, "type",
		"merkel", "leaderOf", "germany",
		"obama", "leaderOf", "usa",
		"merkel", "studied", "physics",
		"obama", "studied", "law",
		"putin", "leaderOf", "russia",
		"obama", "hasChild", "malia")
	if g.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	if g.NumLabels() != 6 {
		t.Fatalf("NumLabels = %d, want 6", g.NumLabels())
	}
	leaderOf, _ := g.LabelByName("leaderOf")
	if got := g.LabelCount(leaderOf); got != 3 {
		t.Fatalf("LabelCount(leaderOf) = %d, want 3", got)
	}
}

func TestReadTriplesNoTypePredicate(t *testing.T) {
	g := mustReadTriples(t, "", "a", "type", "thing", "a", "p", "b")
	// With no type predicate configured, "type" is an ordinary edge.
	if _, ok := g.LabelByName("type"); !ok {
		t.Fatal("type should be an edge label when typePredicate is empty")
	}
	a, _ := g.NodeByName("a")
	if g.TypeOf(a) != NoType {
		t.Fatal("no node types should be assigned")
	}
}

func TestReadTriplesMissingTypePredicate(t *testing.T) {
	// Asking for a type predicate that does not occur must not panic.
	g := mustReadTriples(t, "type", "a", "p", "b")
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}

func TestReadTriplesEmpty(t *testing.T) {
	g := mustReadTriples(t, "type")
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.NumLabels() != 0 || g.NumTypes() != 0 {
		t.Fatalf("empty input built %s", g.Stats())
	}
}

func TestReadTriplesDeduplicates(t *testing.T) {
	g := mustReadTriples(t, "type",
		"a", "p", "b",
		"a", "p", "b",
		"a", "p", "c",
		"a", "type", "T",
		"a", "type", "T")
	p, _ := g.LabelByName("p")
	if g.LabelCount(p) != 2 || g.NumEdges() != 4 {
		t.Fatalf("LabelCount(p) = %d, NumEdges = %d; want 2 and 4 after dedup", g.LabelCount(p), g.NumEdges())
	}
}

// TestReadTriplesNumbering pins the ID rule: nodes by first appearance
// (subject, then object, type objects included), labels and types by the
// statements sorted by (subject, predicate, object) — predicates ranked
// by first appearance — and the last type in that order wins.
func TestReadTriplesNumbering(t *testing.T) {
	g := mustReadTriples(t, "type",
		"c", "q", "a",
		"b", "type", "T2",
		"a", "p", "b",
		"b", "type", "T1",
		"a", "r", "c",
		"a", "q", "c")
	wantNodes := []string{"c", "a", "b", "T2", "T1"}
	for i, name := range wantNodes {
		if got := g.NodeName(NodeID(i)); got != name {
			t.Fatalf("node %d = %q, want %q", i, got, name)
		}
	}
	// Sorted statements: (c q a), (a q c), (a p b), (a r c), (b type T2),
	// (b type T1) — so labels q, p, r and types T2, T1.
	wantLabels := []string{"q", "p", "r"}
	for i, name := range wantLabels {
		if got := g.LabelName(LabelID(i)); got != name {
			t.Fatalf("label %d = %q, want %q", i, got, name)
		}
	}
	if g.TypeName(0) != "T2" || g.TypeName(1) != "T1" {
		t.Fatalf("types = %q, %q; want T2, T1", g.TypeName(0), g.TypeName(1))
	}
	if b, _ := g.NodeByName("b"); g.TypeName(g.TypeOf(b)) != "T1" {
		t.Fatalf("TypeOf(b) = %q, want T1 (largest object ID wins)", g.TypeName(g.TypeOf(b)))
	}
}

func TestReadTriplesPassesErrorThrough(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := ReadTriples(func() (Triple, error) {
		if calls++; calls > 2 {
			return Triple{}, boom
		}
		return Triple{S: "a", P: "p", O: "b"}, nil
	}, "")
	if err != boom {
		t.Fatalf("err = %v, want the reader's error", err)
	}
}

func TestBuilderCounts(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge("a", "p", "b")
	b.AddEdge("b", "q", "c")
	if b.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", b.NumEdges())
	}
	if b.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
}

func TestDisableInverses(t *testing.T) {
	b := NewBuilder(2).DisableInverses()
	b.AddEdge("a", "p", "b")
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 without inverses", g.NumEdges())
	}
	// Inverse labels are still assigned (the dictionary is complete) but
	// no reverse edge exists.
	p, _ := g.LabelByName("p")
	bNode, _ := g.NodeByName("b")
	aNode, _ := g.NodeByName("a")
	if hasEdge(g, bNode, g.InverseLabel(p), aNode) {
		t.Fatal("reverse edge exists despite DisableInverses")
	}
}

func TestSetTypeID(t *testing.T) {
	b := NewBuilder(2)
	n := b.Node("x")
	tid := b.Type("thing")
	b.SetTypeID(n, tid)
	g := b.Build()
	if g.TypeName(g.TypeOf(n)) != "thing" {
		t.Fatal("SetTypeID not honored")
	}
}

func TestSelfLoopSymmetric(t *testing.T) {
	b := NewBuilder(2)
	b.Symmetric("knows")
	b.AddEdge("a", "knows", "a")
	g := b.Build()
	// A symmetric self-loop collapses to a single edge after dedup.
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestMultipleLabelsBetweenSamePair(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge("a", "p", "b")
	b.AddEdge("a", "q", "b")
	g := b.Build()
	a, _ := g.NodeByName("a")
	if len(g.OutEdges(a)) != 2 {
		t.Fatalf("out-degree of a = %d, want 2 parallel edges", len(g.OutEdges(a)))
	}
}

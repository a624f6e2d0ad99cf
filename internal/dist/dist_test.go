package dist

import (
	"testing"

	"repro/internal/kg"
	"repro/internal/stats"
)

// smallWorld: q1 studied Physics; q2 and c1..c3 studied Law; c4 has no
// studied edge. q1 additionally created a unique work, as did c1 and c2.
func smallWorld(t *testing.T) (*kg.Graph, []kg.NodeID, []kg.NodeID) {
	t.Helper()
	b := kg.NewBuilder(32)
	b.AddEdge("q1", "studied", "Physics")
	b.AddEdge("q2", "studied", "Law")
	for _, c := range []string{"c1", "c2", "c3"} {
		b.AddEdge(c, "studied", "Law")
	}
	b.Node("c4")
	b.AddEdge("q1", "created", "Work-q1")
	b.AddEdge("c1", "created", "Work-c1")
	b.AddEdge("c2", "created", "Work-c2")
	g := b.Build()
	ids := func(names ...string) []kg.NodeID {
		out := make([]kg.NodeID, len(names))
		for i, n := range names {
			id, ok := g.NodeByName(n)
			if !ok {
				t.Fatalf("missing node %s", n)
			}
			out[i] = id
		}
		return out
	}
	return g, ids("q1", "q2"), ids("c1", "c2", "c3", "c4")
}

func label(t *testing.T, g *kg.Graph, name string) kg.LabelID {
	t.Helper()
	l, ok := g.LabelByName(name)
	if !ok {
		t.Fatalf("missing label %s", name)
	}
	return l
}

func catCount(t *testing.T, g *kg.Graph, d Instance, name string, counts []int) int {
	t.Helper()
	for i := 0; i < d.NumCategories(); i++ {
		if d.CategoryName(g, i) == name {
			return counts[i]
		}
	}
	t.Fatalf("category %s missing", name)
	return 0
}

func TestInstancesCountsAndNone(t *testing.T) {
	g, query, context := smallWorld(t)
	d := InstancesScratch(g, label(t, g, "studied"), query, context, nil)
	if d.NumCategories() != 3 { // None, Physics, Law
		t.Fatalf("NumCategories = %d, want 3", d.NumCategories())
	}
	if d.CategoryName(g, NoneIndex) != "None" {
		t.Fatalf("NoneIndex name = %q", d.CategoryName(g, NoneIndex))
	}
	if got := catCount(t, g, d, "Physics", d.Query); got != 1 {
		t.Fatalf("query Physics = %d", got)
	}
	if got := catCount(t, g, d, "Law", d.Query); got != 1 {
		t.Fatalf("query Law = %d", got)
	}
	if got := catCount(t, g, d, "Law", d.Context); got != 3 {
		t.Fatalf("context Law = %d", got)
	}
	// c4 has no studied edge: one None count in the context.
	if d.Context[NoneIndex] != 1 {
		t.Fatalf("context None = %d, want 1", d.Context[NoneIndex])
	}
	if d.Query[NoneIndex] != 0 {
		t.Fatalf("query None = %d, want 0", d.Query[NoneIndex])
	}
}

func TestInstancesDeterministicCategories(t *testing.T) {
	g, query, context := smallWorld(t)
	a := InstancesScratch(g, label(t, g, "studied"), query, context, nil)
	b := InstancesScratch(g, label(t, g, "studied"), query, context, nil)
	if len(a.Values) != len(b.Values) {
		t.Fatal("value sets differ")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("value order not deterministic")
		}
		if i > 0 && a.Values[i] <= a.Values[i-1] {
			t.Fatal("values not sorted by ID")
		}
	}
}

func TestTestVectorsStrictUnseenIsImpossible(t *testing.T) {
	g, query, context := smallWorld(t)
	d := InstancesScratch(g, label(t, g, "studied"), query, context, nil)
	pi, obs := d.TestVectorsScratch(UnseenStrict, nil)
	if len(pi) != len(obs) || len(pi) != d.NumCategories() {
		t.Fatalf("vector lengths: pi=%d obs=%d cats=%d", len(pi), len(obs), d.NumCategories())
	}
	// Physics is observed by the query but impossible under the context:
	// the multinomial test must report maximal notability.
	res := stats.Multinomial{Seed: 1}.Test(stats.Normalize(pi), obs)
	if res.P != 0 {
		t.Fatalf("strict unseen value P = %v, want 0", res.P)
	}
}

func TestTestVectorsPooledMergesIdiosyncratic(t *testing.T) {
	g, query, context := smallWorld(t)
	d := InstancesScratch(g, label(t, g, "created"), query, context, nil)
	pi, obs := d.TestVectorsScratch(UnseenPooled, nil)
	// Every work has exactly one owner, so pooling leaves None + pooled.
	if len(pi) != 2 || len(obs) != 2 {
		t.Fatalf("pooled vectors: pi=%v obs=%v", pi, obs)
	}
	// Context: 2 creators + 2 nonners; query: 1 creator + 1 nonner. The
	// query's unique work is now a *possible* observation.
	if pi[1] != 2 || obs[1] != 1 {
		t.Fatalf("pooled category: pi=%v obs=%v", pi[1], obs[1])
	}
	res := stats.Multinomial{Seed: 1}.Test(stats.Normalize(pi), obs)
	if res.P == 0 {
		t.Fatal("pooled policy still treats unique values as impossible")
	}
	// Shared values (Law) survive pooling for the studied label.
	dp, _ := InstancesScratch(g, label(t, g, "studied"), query, context, nil).TestVectorsScratch(UnseenPooled, nil)
	if len(dp) != 3 { // None, Law, pooled(Physics)
		t.Fatalf("studied pooled pi = %v", dp)
	}
}

func TestCardinalities(t *testing.T) {
	g, query, context := smallWorld(t)
	d := Cardinalities(g, label(t, g, "created"), query, context)
	if len(d.Query) != len(d.Context) || len(d.Query) != 2 {
		t.Fatalf("cardinality shape: %v %v", d.Query, d.Context)
	}
	if d.Query[0] != 1 || d.Query[1] != 1 { // q2 none, q1 one
		t.Fatalf("query cards = %v", d.Query)
	}
	if d.Context[0] != 2 || d.Context[1] != 2 { // c3,c4 none; c1,c2 one
		t.Fatalf("context cards = %v", d.Context)
	}
}

func TestContextFloats(t *testing.T) {
	f := ContextFloats([]int{3, 0, 2})
	if len(f) != 3 || f[0] != 3 || f[1] != 0 || f[2] != 2 {
		t.Fatalf("ContextFloats = %v", f)
	}
	if got := ContextFloats(nil); len(got) != 0 {
		t.Fatalf("ContextFloats(nil) = %v", got)
	}
}

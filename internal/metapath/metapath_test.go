package metapath

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// diamond builds a 2-hop diamond with two parallel paths a->m1->z, a->m2->z
// and one decoy a->m1->w.
func diamond() *kg.Graph {
	b := kg.NewBuilder(8)
	b.AddEdge("a", "p", "m1")
	b.AddEdge("a", "p", "m2")
	b.AddEdge("m1", "q", "z")
	b.AddEdge("m2", "q", "z")
	b.AddEdge("m1", "q", "w")
	return b.Build()
}

func labelID(t *testing.T, g *kg.Graph, name string) kg.LabelID {
	t.Helper()
	l, ok := g.LabelByName(name)
	if !ok {
		t.Fatalf("label %q missing", name)
	}
	return l
}

func nodeID(t *testing.T, g *kg.Graph, name string) kg.NodeID {
	t.Helper()
	n, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("node %q missing", name)
	}
	return n
}

func TestCountPathsDiamond(t *testing.T) {
	g := diamond()
	m := Path{labelID(t, g, "p"), labelID(t, g, "q")}
	counts, _ := CountPathsInto(g, nodeID(t, g, "a"), m, &Scratch{})
	if got := counts[nodeID(t, g, "z")]; got != 2 {
		t.Fatalf("paths a=>z = %v, want 2", got)
	}
	if got := counts[nodeID(t, g, "w")]; got != 1 {
		t.Fatalf("paths a=>w = %v, want 1", got)
	}
	if got := counts[nodeID(t, g, "a")]; got != 0 {
		t.Fatalf("paths a=>a = %v, want 0", got)
	}
}

func TestCountPathsEmptyPath(t *testing.T) {
	g := diamond()
	a := nodeID(t, g, "a")
	counts, _ := CountPathsInto(g, a, nil, &Scratch{})
	if counts[a] != 1 {
		t.Fatalf("empty path should count the start itself: %v", counts[a])
	}
	for i, c := range counts {
		if kg.NodeID(i) != a && c != 0 {
			t.Fatalf("empty path reached node %d", i)
		}
	}
}

func TestCountPathsNoMatch(t *testing.T) {
	g := diamond()
	m := Path{labelID(t, g, "q")} // a has no q edge
	counts, _ := CountPathsInto(g, nodeID(t, g, "a"), m, &Scratch{})
	for i, c := range counts {
		if c != 0 {
			t.Fatalf("unexpected count at node %d: %v", i, c)
		}
	}
}

func TestCountPathsInverseLabels(t *testing.T) {
	g := diamond()
	p := labelID(t, g, "p")
	q := labelID(t, g, "q")
	// The inverse of the metapath p/q, followed from z, should reach a
	// exactly twice.
	reverse := Path{g.InverseLabel(q), g.InverseLabel(p)}
	counts, _ := CountPathsInto(g, nodeID(t, g, "z"), reverse, &Scratch{})
	if got := counts[nodeID(t, g, "a")]; got != 2 {
		t.Fatalf("reverse paths z=>a = %v, want 2", got)
	}
}

func TestPathKeyDistinguishes(t *testing.T) {
	a := Path{1, 2, 3}
	b := Path{1, 2}
	c := Path{3, 2, 1}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatal("distinct paths share a key")
	}
	if !a.Equal(Path{1, 2, 3}) {
		t.Fatal("Equal failed on identical paths")
	}
}

func TestCountPathsIntoReturnsSupport(t *testing.T) {
	g := diamond()
	m := Path{labelID(t, g, "p"), labelID(t, g, "q")}
	sc := &Scratch{}
	counts, touched := CountPathsInto(g, nodeID(t, g, "a"), m, sc)
	if got := counts[nodeID(t, g, "z")]; got != 2 {
		t.Fatalf("paths a=>z = %v, want 2", got)
	}
	support := map[kg.NodeID]bool{}
	for _, v := range touched {
		if counts[v] == 0 {
			t.Fatalf("touched node %d has zero count", v)
		}
		if support[v] {
			t.Fatalf("touched list repeats node %d", v)
		}
		support[v] = true
	}
	for i, c := range counts {
		if (c != 0) != support[kg.NodeID(i)] {
			t.Fatalf("support mismatch at node %d: count %v, touched %v", i, c, support[kg.NodeID(i)])
		}
	}
}

func TestCountPathsIntoScratchReuse(t *testing.T) {
	g := diamond()
	a := nodeID(t, g, "a")
	p := Path{labelID(t, g, "p")}
	pq := Path{labelID(t, g, "p"), labelID(t, g, "q")}
	sc := &Scratch{}
	// First count reaches z and w; the second, shorter path must not see
	// stale counts from the first.
	CountPathsInto(g, a, pq, sc)
	counts, touched := CountPathsInto(g, a, p, sc)
	if counts[nodeID(t, g, "z")] != 0 || counts[nodeID(t, g, "w")] != 0 {
		t.Fatalf("stale counts survived scratch reuse: %v", counts)
	}
	if len(touched) != 2 { // m1, m2
		t.Fatalf("touched = %v, want the two p-targets", touched)
	}
	// And the result matches a fresh computation.
	want, _ := CountPathsInto(g, a, p, &Scratch{})
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("reused scratch differs at %d: %v vs %v", i, counts[i], want[i])
		}
	}
}

func TestCountPathsIntoNoAllocsSteadyState(t *testing.T) {
	g := diamond()
	a := nodeID(t, g, "a")
	m := Path{labelID(t, g, "p"), labelID(t, g, "q")}
	sc := &Scratch{}
	CountPathsInto(g, a, m, sc)
	if allocs := testing.AllocsPerRun(100, func() { CountPathsInto(g, a, m, sc) }); allocs != 0 {
		t.Fatalf("CountPathsInto allocates %v/op with a warm scratch, want 0", allocs)
	}
}

// chainWithBranch: query q reachable from many nodes via labeled chains.
func chainWithBranch() *kg.Graph {
	b := kg.NewBuilder(32)
	// u0..u9 -worksWith-> q ; v0..v9 -knows-> w -worksWith-> q
	for i := 0; i < 10; i++ {
		b.AddEdge(uname(i), "worksWith", "q")
		b.AddEdge(vname(i), "knows", "w")
	}
	b.AddEdge("w", "worksWith", "q")
	return b.Build()
}

func uname(i int) string { return "u" + string(rune('0'+i)) }
func vname(i int) string { return "v" + string(rune('0'+i)) }

func TestMineFindsDominantMetapath(t *testing.T) {
	g := chainWithBranch()
	q := nodeID(t, g, "q")
	mined := Mine(g, []kg.NodeID{q}, MineOptions{Walks: 20000, MaxLength: 3, Seed: 1})
	if len(mined) == 0 {
		t.Fatal("mining found nothing")
	}
	// The single-hop worksWith path must be among the top metapaths.
	worksWith := labelID(t, g, "worksWith")
	found := false
	for _, mp := range mined[:min(3, len(mined))] {
		if mp.Path.Equal(Path{worksWith}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("worksWith not in top metapaths: %+v", mined)
	}
	// Counts must be positive and sorted descending.
	for i, mp := range mined {
		if mp.Count <= 0 {
			t.Fatalf("metapath %d has count %d", i, mp.Count)
		}
		if i > 0 && mp.Count > mined[i-1].Count {
			t.Fatal("mined not sorted by count")
		}
		if len(mp.Path) > 3 {
			t.Fatalf("metapath longer than MaxLength: %v", mp.Path)
		}
	}
}

func TestMineDeterministicForSeed(t *testing.T) {
	g := chainWithBranch()
	q := nodeID(t, g, "q")
	opt := MineOptions{Walks: 5000, MaxLength: 3, Seed: 42}
	a := Mine(g, []kg.NodeID{q}, opt)
	b := Mine(g, []kg.NodeID{q}, opt)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Path.Equal(b[i].Path) || a[i].Count != b[i].Count {
			t.Fatalf("runs differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMineRespectsWalkBudget(t *testing.T) {
	g := chainWithBranch()
	q := nodeID(t, g, "q")
	mined := Mine(g, []kg.NodeID{q}, MineOptions{Walks: 100, MaxLength: 3, Seed: 7})
	var total int64
	for _, mp := range mined {
		total += mp.Count
	}
	if total > 100 {
		t.Fatalf("total count %d exceeds walk budget", total)
	}
}

func TestMineEdgeCases(t *testing.T) {
	g := chainWithBranch()
	q := nodeID(t, g, "q")
	if got := Mine(g, nil, MineOptions{Walks: 10}); got != nil {
		t.Fatal("empty query should mine nothing")
	}
	if got := Mine(g, []kg.NodeID{q}, MineOptions{Walks: 0}); got != nil {
		t.Fatal("zero walks should mine nothing")
	}
	empty := kg.NewBuilder(0).Build()
	if got := Mine(empty, []kg.NodeID{}, MineOptions{Walks: 10}); got != nil {
		t.Fatal("empty graph should mine nothing")
	}
	// Graph where the query is every node: no start nodes available.
	b := kg.NewBuilder(1)
	b.AddEdge("only", "p", "only")
	g2 := b.Build()
	only, _ := g2.NodeByName("only")
	if got := Mine(g2, []kg.NodeID{only}, MineOptions{Walks: 10}); got != nil {
		t.Fatal("all-query graph should mine nothing")
	}
}

// Cross-check CountPathsInto against brute-force DFS enumeration on random
// graphs.
func TestCountPathsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		b := kg.NewBuilder(0)
		nNodes := 4 + rng.Intn(8)
		labels := []string{"p", "q"}
		for i := 0; i < 25; i++ {
			b.AddEdge(nname(rng.Intn(nNodes)), labels[rng.Intn(2)], nname(rng.Intn(nNodes)))
		}
		g := b.Build()
		pathLen := 1 + rng.Intn(3)
		m := make(Path, pathLen)
		for i := range m {
			m[i] = kg.LabelID(rng.Intn(g.NumLabels()))
		}
		start := kg.NodeID(rng.Intn(g.NumNodes()))

		got, _ := CountPathsInto(g, start, m, &Scratch{})
		want := make([]float64, g.NumNodes())
		var dfs func(node kg.NodeID, depth int)
		dfs = func(node kg.NodeID, depth int) {
			if depth == len(m) {
				want[node]++
				return
			}
			for _, e := range g.OutEdgesByLabel(node, m[depth]) {
				dfs(e.To, depth+1)
			}
		}
		dfs(start, 0)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d node %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func nname(i int) string { return string(rune('a' + i)) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// benchYAGO is the scale-1 YAGO-like graph with three of its actors: the
// graph and query shape of a cold ContextRW request in the repo benchmark.
func benchYAGO(b *testing.B) (*kg.Graph, []kg.NodeID) {
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph
	var query []kg.NodeID
	for _, name := range gen.Table1["actors"][:3] {
		q, ok := g.NodeByName(name)
		if !ok {
			b.Fatalf("actor %q missing", name)
		}
		query = append(query, q)
	}
	return g, query
}

// BenchmarkMine is the mining half of a cold ContextRW request as the repo
// benchmark issues it: 200 000 five-step walks toward three actors, read
// from a walk bank built before the timer starts.
func BenchmarkMine(b *testing.B) {
	g, query := benchYAGO(b)
	opt := MineOptions{Walks: 200000, MaxLength: 5, Seed: 1}
	Mine(g, query, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(g, query, opt)
	}
}

// BenchmarkBankBuild times the one-off walk-bank build the first mining
// call on a graph pays, at the same shape; each iteration's seed is new.
func BenchmarkBankBuild(b *testing.B) {
	g, _ := benchYAGO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBank(context.Background(), g, bankKey{seed: int64(i), maxLength: 5}, 200000)
	}
}

func BenchmarkCountPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	bld := kg.NewBuilder(1 << 14)
	for i := 0; i < 1<<14; i++ {
		bld.AddEdge(nname3(rng.Intn(2000)), "p"+string(rune('0'+rng.Intn(4))), nname3(rng.Intn(2000)))
	}
	g := bld.Build()
	m := Path{0, 1, 2}
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountPathsInto(g, kg.NodeID(i%2000), m, &sc)
	}
}

func nname3(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

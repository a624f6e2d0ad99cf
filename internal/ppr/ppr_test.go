package ppr

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/kg"
)

// chain builds a -p-> b -p-> c -p-> d (plus automatic inverses).
func chain() *kg.Graph {
	b := kg.NewBuilder(4)
	b.AddEdge("a", "p", "b")
	b.AddEdge("b", "p", "c")
	b.AddEdge("c", "p", "d")
	return b.Build()
}

// solo is the PageRank vector of the single seed s: the one-seed sum.
func solo(g *kg.Graph, s kg.NodeID, opt Options) []float64 {
	return PersonalizedSumCtx(context.Background(), g, []kg.NodeID{s}, opt)
}

func TestMassConservation(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	p := solo(g, a, Options{})
	sum := 0.0
	for _, s := range p {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mass = %v, want 1", sum)
	}
}

func TestSeedHasHighestScoreWithStrongRestart(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	p := solo(g, a, Options{Damping: 0.2})
	for i, s := range p {
		if kg.NodeID(i) != a && s >= p[a] {
			t.Fatalf("node %d score %v >= seed score %v", i, s, p[a])
		}
	}
}

func TestProximityOrdering(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	bn, _ := g.NodeByName("b")
	d, _ := g.NodeByName("d")
	p := solo(g, a, Options{})
	if p[bn] <= p[d] {
		t.Fatalf("nearer node b (%v) should outrank far node d (%v)", p[bn], p[d])
	}
}

func TestEmptySeedsAndEmptyGraph(t *testing.T) {
	g := chain()
	if p := PersonalizedSumCtx(context.Background(), g, nil, Options{}); len(p) != g.NumNodes() {
		t.Fatal("empty seeds should return zero vector of graph size")
	}
	empty := kg.NewBuilder(0).Build()
	if p := PersonalizedSumCtx(context.Background(), empty, nil, Options{}); len(p) != 0 {
		t.Fatal("empty graph should return empty vector")
	}
}

func TestIsolatedSeedKeepsMass(t *testing.T) {
	b := kg.NewBuilder(2)
	b.Node("loner")
	b.AddEdge("a", "p", "b")
	g := b.Build()
	loner, _ := g.NodeByName("loner")
	p := solo(g, loner, Options{})
	sum := 0.0
	for _, s := range p {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dangling mass lost: sum = %v", sum)
	}
	if math.Abs(p[loner]-1) > 1e-9 {
		t.Fatalf("isolated seed score = %v, want 1", p[loner])
	}
}

func TestWeightingPrefersRareLabel(t *testing.T) {
	// hub has many "common" edges and one "rare" edge; the rare label is
	// more informative so its target should score higher.
	b := kg.NewBuilder(16)
	for i := 0; i < 9; i++ {
		b.AddEdge("hub", "common", nodeName(i))
	}
	b.AddEdge("hub", "rare", "special")
	g := b.Build()
	hub, _ := g.NodeByName("hub")
	special, _ := g.NodeByName("special")
	ordinary, _ := g.NodeByName(nodeName(0))
	p := solo(g, hub, Options{})
	if p[special] <= p[ordinary] {
		t.Fatalf("rare-label target %v should outrank common-label target %v",
			p[special], p[ordinary])
	}
}

// TestPersonalizedSumMatchesSequential: the sum is bit for bit the
// sequential loop over per-seed vectors — each slot's additions run
// in seed-list order, and adding a zero slot changes no bit.
func TestPersonalizedSumMatchesSequential(t *testing.T) {
	g := randomGraph(500, 2000, 77)
	seeds := []kg.NodeID{1, 5, 9, 13, 5}
	sum := PersonalizedSumCtx(context.Background(), g, seeds, Options{})
	want := make([]float64, g.NumNodes())
	for _, s := range seeds {
		p := solo(g, s, Options{})
		for i, sc := range p {
			want[i] += sc
		}
	}
	assertSameBits(t, "sum vs sequential", sum, want)
}

// TestPersonalizedSumCachelessMemoryBound: without a seed cache, a sum
// over many saturating seeds allocates O(n), not one dense vector per
// seed: each solve folds straight out of the one workspace.
func TestPersonalizedSumCachelessMemoryBound(t *testing.T) {
	g := randomGraph(5000, 40000, 123)
	n := g.NumNodes()
	seeds := make([]kg.NodeID, 80)
	for i := range seeds {
		seeds[i] = kg.NodeID(i * 61)
	}
	opt := Options{}
	if p := solo(g, seeds[0], opt); countNonzero(p)*denseSwitchDivisor < n {
		t.Fatal("test graph must saturate a single-seed solve")
	}
	PersonalizedSumCtx(context.Background(), g, seeds, opt) // warm the workspace pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := PersonalizedSumCtx(context.Background(), g, seeds, opt)
	runtime.ReadMemStats(&after)
	// The sum is 8n. Workspaces come from a pool, which a GC (or the race
	// detector, at random) may empty, so a few more vectors of 8n can be
	// allocated; one vector per seed is 80·8n.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(20*8*n) {
		t.Fatalf("cacheless sum of %d seeds allocated %d bytes, want ≤ %d", len(seeds), alloc, 20*8*n)
	}
	assertSameBits(t, "cacheless", got, refPersonalizedSum(g, seeds, opt))
}

// TestPersonalizedSumMultiStreamCachelessMemoryBound: a cacheless batch
// over queries with no seed in common holds no solved vector past its
// query's fold, so it allocates the returned sums and O(n) besides — not
// one dense vector per seed of the batch — whether it streams or returns
// the sums together.
func TestPersonalizedSumMultiStreamCachelessMemoryBound(t *testing.T) {
	g := randomGraph(5000, 40000, 123)
	n := g.NumNodes()
	queries := make([][]kg.NodeID, 8)
	for qi := range queries {
		for j := 0; j < 10; j++ {
			queries[qi] = append(queries[qi], kg.NodeID((qi*10+j)*61))
		}
	}
	opt := Options{}
	if p := solo(g, queries[0][0], opt); countNonzero(p)*denseSwitchDivisor < n {
		t.Fatal("test graph must saturate a single-seed solve")
	}
	runs := map[string]func() [][]float64{
		"stream": func() [][]float64 {
			got := make([][]float64, len(queries))
			PersonalizedSumMultiStream(context.Background(), g, queries, opt, func(qi int, sum []float64) { got[qi] = sum })
			return got
		},
		"batch": func() [][]float64 { return PersonalizedSumMultiCtx(context.Background(), g, queries, opt) },
	}
	for name, run := range runs {
		run() // warm the workspace pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := run()
		runtime.ReadMemStats(&after)
		// The eight sums are 8·8n, plus pool refills as in the solo bound;
		// keeping every solved vector would be 80·8n.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(20*8*n) {
			t.Fatalf("cacheless %s of %d queries allocated %d bytes, want ≤ %d", name, len(queries), alloc, 20*8*n)
		}
		for qi, q := range queries {
			assertSameBits(t, "cacheless-"+name, got[qi], refPersonalizedSum(g, q, opt))
		}
	}
}

func countNonzero(v []float64) int {
	c := 0
	for _, x := range v {
		if x != 0 {
			c++
		}
	}
	return c
}

// Property: PageRank mass is conserved (sums to ~1) on arbitrary graphs.
func TestMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(3+rng.Intn(60), 1+rng.Intn(200), seed)
		s := kg.NodeID(rng.Intn(g.NumNodes()))
		p := solo(g, s, Options{})
		sum := 0.0
		for _, sc := range p {
			sum += sc
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scores are non-negative.
func TestNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(3+rng.Intn(40), 1+rng.Intn(100), seed+1)
		s := kg.NodeID(rng.Intn(g.NumNodes()))
		for _, sc := range solo(g, s, Options{}) {
			if sc < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(nodes, edges int, seed int64) *kg.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := kg.NewBuilder(edges)
	labels := []string{"p", "q", "r", "s"}
	for i := 0; i < nodes; i++ {
		b.Node(nodeNameN(i))
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(nodeNameN(rng.Intn(nodes)), labels[rng.Intn(len(labels))], nodeNameN(rng.Intn(nodes)))
	}
	return b.Build()
}

func nodeName(i int) string { return string(rune('a' + i)) }

func nodeNameN(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func BenchmarkPersonalized(b *testing.B) {
	g := randomGraph(5000, 40000, 123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solo(g, kg.NodeID(i%5000), Options{})
	}
}

func BenchmarkPersonalizedSum5Seeds(b *testing.B) {
	g := randomGraph(5000, 40000, 123)
	seeds := []kg.NodeID{1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PersonalizedSumCtx(context.Background(), g, seeds, Options{})
	}
}

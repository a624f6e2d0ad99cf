package ctxsel

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kg"
	"repro/internal/topk"
)

// communityGraph builds two communities of people. Community A members all
// work at "acme" and live in "metropolis"; community B members work at
// "globex" and live in "smallville". Query nodes come from community A, so
// a good selector returns the rest of community A as context.
func communityGraph() (*kg.Graph, []kg.NodeID, map[kg.NodeID]bool) {
	b := kg.NewBuilder(128)
	sizeA, sizeB := 12, 12
	for i := 0; i < sizeA; i++ {
		name := fmt.Sprintf("a%02d", i)
		b.AddEdge(name, "worksAt", "acme")
		b.AddEdge(name, "livesIn", "metropolis")
	}
	for i := 0; i < sizeB; i++ {
		name := fmt.Sprintf("b%02d", i)
		b.AddEdge(name, "worksAt", "globex")
		b.AddEdge(name, "livesIn", "smallville")
	}
	// Noise: a hub city connected to everyone dilutes naive walks.
	for i := 0; i < sizeA; i++ {
		b.AddEdge(fmt.Sprintf("a%02d", i), "visited", "megacity")
	}
	for i := 0; i < sizeB; i++ {
		b.AddEdge(fmt.Sprintf("b%02d", i), "visited", "megacity")
	}
	g := b.Build()
	q0, _ := g.NodeByName("a00")
	q1, _ := g.NodeByName("a01")
	query := []kg.NodeID{q0, q1}
	wantSet := make(map[kg.NodeID]bool)
	for i := 2; i < sizeA; i++ {
		n, _ := g.NodeByName(fmt.Sprintf("a%02d", i))
		wantSet[n] = true
	}
	return g, query, wantSet
}

func precisionAt(items []topk.Item, want map[kg.NodeID]bool, k int) float64 {
	if k > len(items) {
		k = len(items)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, it := range items[:k] {
		if want[kg.NodeID(it.ID)] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func TestContextRWFindsCommunity(t *testing.T) {
	g, query, want := communityGraph()
	s := ContextRW{Walks: 30000, Seed: 5}
	got := Select(context.Background(), s, g, query, 10)
	if len(got) == 0 {
		t.Fatal("empty context")
	}
	if p := precisionAt(got, want, 10); p < 0.8 {
		t.Fatalf("ContextRW precision@10 = %v, want >= 0.8 (got %v)", p, names(g, got))
	}
}

func TestContextRWExcludesQuery(t *testing.T) {
	g, query, _ := communityGraph()
	s := ContextRW{Walks: 10000, Seed: 5}
	for _, it := range Select(context.Background(), s, g, query, 50) {
		for _, q := range query {
			if kg.NodeID(it.ID) == q {
				t.Fatal("context contains a query node")
			}
		}
	}
}

func TestContextRWDeterministic(t *testing.T) {
	g, query, _ := communityGraph()
	s := ContextRW{Walks: 10000, Seed: 99}
	a := Select(context.Background(), s, g, query, 10)
	b := Select(context.Background(), s, g, query, 10)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// probeCtx records the goroutine of every Err probe.
type probeCtx struct {
	context.Context
	mu     sync.Mutex
	probes map[string]int
}

func (c *probeCtx) Err() error {
	c.mu.Lock()
	c.probes[goroutineID()]++
	c.mu.Unlock()
	return c.Context.Err()
}

// goroutineID is the calling goroutine's number, read off the first line
// of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestSelectionRunsOnCallersGoroutine: a RandomWalk selection over several
// seeds and a ContextRW selection probe ctx only from the calling
// goroutine — neither fans a solve or a mining walk out to workers.
func TestSelectionRunsOnCallersGoroutine(t *testing.T) {
	g, query, _ := communityGraph()
	if len(query) < 2 {
		t.Fatal("the query must hold several seeds")
	}
	for _, sel := range []Selector{RandomWalk{}, ContextRW{Walks: 10000, Seed: 7}} {
		ctx := &probeCtx{Context: context.Background(), probes: map[string]int{}}
		if got := Select(ctx, sel, g, query, 10); len(got) == 0 {
			t.Fatalf("%s: empty context", sel.Name())
		}
		self := goroutineID()
		if len(ctx.probes) != 1 || ctx.probes[self] == 0 {
			t.Fatalf("%s: ctx probed from goroutines %v, want only the caller's (%s)", sel.Name(), ctx.probes, self)
		}
	}
}

func TestRandomWalkReturnsRankedContext(t *testing.T) {
	g, query, _ := communityGraph()
	got := Select(context.Background(), RandomWalk{}, g, query, 10)
	if len(got) == 0 {
		t.Fatal("empty context")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("not sorted descending")
		}
	}
	for _, it := range got {
		for _, q := range query {
			if kg.NodeID(it.ID) == q {
				t.Fatal("context contains a query node")
			}
		}
	}
}

func TestContextRWBeatsRandomWalkOnCommunity(t *testing.T) {
	g, query, want := communityGraph()
	crw := Select(context.Background(), ContextRW{Walks: 30000, Seed: 5}, g, query, 10)
	rw := Select(context.Background(), RandomWalk{}, g, query, 10)
	pc := precisionAt(crw, want, 10)
	pr := precisionAt(rw, want, 10)
	if pc < pr {
		t.Fatalf("ContextRW precision %v < RandomWalk %v", pc, pr)
	}
}

func TestJaccardSelector(t *testing.T) {
	g, query, want := communityGraph()
	got := Select(context.Background(), Jaccard{}, g, query, 10)
	if len(got) == 0 {
		t.Fatal("empty context")
	}
	if p := precisionAt(got, want, 10); p < 0.5 {
		t.Fatalf("Jaccard precision@10 = %v too low: %v", p, names(g, got))
	}
}

func TestSimRankSelector(t *testing.T) {
	g, query, _ := communityGraph()
	got := Select(context.Background(), SimRank{}, g, query, 10)
	if len(got) == 0 {
		t.Fatal("empty context")
	}
	for _, it := range got {
		if it.Score <= 0 {
			t.Fatal("non-positive SimRank score retained")
		}
	}
}

func TestSelectorsHandleEmptyQuery(t *testing.T) {
	g, _, _ := communityGraph()
	for _, s := range []Selector{ContextRW{Walks: 100, Seed: 1}, RandomWalk{}, Jaccard{}, SimRank{}} {
		if got := Select(context.Background(), s, g, nil, 5); len(got) != 0 {
			t.Fatalf("%s returned context for empty query", s.Name())
		}
	}
}

func TestScoresWithPathsEmptyMined(t *testing.T) {
	g, query, _ := communityGraph()
	scores := ContextRW{}.ScoresWithPaths(g, query, nil)
	for _, s := range scores {
		if s != 0 {
			t.Fatal("no mined paths should produce zero scores")
		}
	}
}

func TestSelectorNames(t *testing.T) {
	if (ContextRW{}).Name() != "ContextRW" {
		t.Fatal("ContextRW name")
	}
	if (RandomWalk{}).Name() != "RandomWalk" {
		t.Fatal("RandomWalk name")
	}
}

func names(g *kg.Graph, items []topk.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = g.NodeName(kg.NodeID(it.ID))
	}
	return out
}

func BenchmarkContextRWSelect(b *testing.B) {
	g, query, _ := communityGraph()
	s := ContextRW{Walks: 20000, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(context.Background(), s, g, query, 20)
	}
}

func BenchmarkRandomWalkSelect(b *testing.B) {
	g, query, _ := communityGraph()
	s := RandomWalk{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Select(context.Background(), s, g, query, 20)
	}
}

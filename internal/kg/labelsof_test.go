package kg_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/gen"
	"repro/internal/kg"
)

// refLabelsOf is LabelsOf as it was before the bitset, kept verbatim as
// the reference the rewrite is pinned to.
func refLabelsOf(g *kg.Graph, nodes []kg.NodeID) []kg.LabelID {
	seen := make(map[kg.LabelID]struct{})
	for _, n := range nodes {
		for _, e := range g.OutEdges(n) {
			seen[e.Label] = struct{}{}
		}
	}
	out := make([]kg.LabelID, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomNodeSets draws node sets of g — empty, single, with duplicates,
// and large — for the LabelsOf pin.
func randomNodeSets(rng *rand.Rand, g *kg.Graph) [][]kg.NodeID {
	sets := [][]kg.NodeID{nil, {}}
	for i := 0; i < 40; i++ {
		set := make([]kg.NodeID, rng.Intn(3*g.NumNodes()/2+1))
		for j := range set {
			set[j] = kg.NodeID(rng.Intn(g.NumNodes()))
		}
		sets = append(sets, set)
	}
	return sets
}

// TestLabelsOfMatchesReference pins LabelsOf to the map version on flat
// random graphs with over 64 labels, and on the overlay graphs a Versioned
// store publishes as batches add and delete edges and intern new labels.
func TestLabelsOfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(name string, g *kg.Graph) {
		t.Helper()
		for _, set := range randomNodeSets(rng, g) {
			if got, want := g.LabelsOf(set), refLabelsOf(g, set); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, nodes %v:\n got  %v\n want %v", name, set, got, want)
			}
		}
	}
	triple := func(labels int) kg.Triple {
		return kg.Triple{
			S: fmt.Sprint("n", rng.Intn(60)),
			P: fmt.Sprint("p", rng.Intn(labels)),
			O: fmt.Sprint("n", rng.Intn(60)),
		}
	}
	for trial := 0; trial < 5; trial++ {
		b := kg.NewBuilder(400)
		for i := 0; i < 400; i++ {
			tr := triple(50)
			b.AddEdge(tr.S, tr.P, tr.O)
		}
		base := b.Build()
		check(fmt.Sprintf("flat %d (%d labels)", trial, base.NumLabels()), base)

		v := kg.NewVersioned(base, kg.VersionedOptions{CompactThreshold: -1})
		for step := 0; step < 6; step++ {
			var adds, dels []kg.Triple
			for i := 0; i < 30; i++ {
				adds = append(adds, triple(50+10*step)) // later steps intern new labels
				dels = append(dels, triple(50))
			}
			view, err := v.Apply(adds, dels)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("overlay %d step %d (%d labels)", trial, step, view.G.NumLabels()), view.G)
		}
	}
}

// BenchmarkLabelsOf lists the labels of a RandomWalk query plus its
// 100-node context on a YAGO-like graph with 24× the ambient population
// (≈140k nodes, the shape of the benchmark's largest graph).
func BenchmarkLabelsOf(b *testing.B) {
	g := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 1, AmbientScale: 24}).Graph
	var query []kg.NodeID
	for _, name := range gen.Table1["actors"][:2] {
		id, ok := g.NodeByName(name)
		if !ok {
			b.Fatalf("no node %q", name)
		}
		query = append(query, id)
	}
	nodes := append([]kg.NodeID(nil), query...)
	for _, it := range ctxsel.Select(context.Background(), ctxsel.RandomWalk{}, g, query, 100) {
		nodes = append(nodes, kg.NodeID(it.ID))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labelsSink = g.LabelsOf(nodes)
	}
}

// labelsSink keeps the benchmarked call from being optimized away.
var labelsSink []kg.LabelID

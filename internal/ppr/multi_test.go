package ppr

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// batchQueries builds nq random queries of 1..maxLen seeds with heavy
// overlap (seeds drawn from a small pool), the workload the batch path is
// built for.
func batchQueries(rng *rand.Rand, nq, maxLen, nodes int) [][]kg.NodeID {
	pool := make([]kg.NodeID, 1+nodes/10)
	for i := range pool {
		pool[i] = kg.NodeID(rng.Intn(nodes))
	}
	queries := make([][]kg.NodeID, nq)
	for i := range queries {
		q := make([]kg.NodeID, 1+rng.Intn(maxLen))
		for j := range q {
			q[j] = pool[rng.Intn(len(pool))]
		}
		queries[i] = q
	}
	return queries
}

// TestPersonalizedSumMultiMatchesSequentialBitwise: the batched solve and
// per-query PersonalizedSumCtx must both reproduce the workspace fold
// (refPersonalizedSum) bit for bit — across graph shapes (sparse-only and
// saturating solves), batch sizes, duplicate seeds within a query, and
// seeds shared across queries.
func TestPersonalizedSumMultiMatchesSequentialBitwise(t *testing.T) {
	shapes := []struct{ nodes, edges int }{
		{40, 80},      // tiny: saturates instantly
		{400, 1600},   // mixed sparse/dense switch points
		{2000, 12000}, // every tail dense
	}
	for _, sh := range shapes {
		g := randomGraph(sh.nodes, sh.edges, 17)
		rng := rand.New(rand.NewSource(int64(sh.nodes)))
		for _, nq := range []int{1, 3, 16} {
			queries := batchQueries(rng, nq, 4, g.NumNodes())
			opt := Options{}
			got := PersonalizedSumMultiCtx(context.Background(), g, queries, opt)
			if len(got) != len(queries) {
				t.Fatalf("%d nodes nq=%d: %d results", sh.nodes, nq, len(got))
			}
			for qi, q := range queries {
				want := refPersonalizedSum(g, q, opt)
				for i := range want {
					if got[qi][i] != want[i] {
						t.Fatalf("%d nodes nq=%d query %d node %d: batch %v != sequential %v",
							sh.nodes, nq, qi, i, got[qi][i], want[i])
					}
				}
				assertSameBits(t, "single", PersonalizedSumCtx(context.Background(), g, q, opt), want)
			}
		}
	}
}

// TestPersonalizedSumMultiEdgeCases: empty batch, empty queries, and an
// empty graph must mirror the sequential behavior.
func TestPersonalizedSumMultiEdgeCases(t *testing.T) {
	g := randomGraph(50, 200, 9)
	if got := PersonalizedSumMultiCtx(context.Background(), g, nil, Options{}); len(got) != 0 {
		t.Fatalf("nil batch: %d results", len(got))
	}
	got := PersonalizedSumMultiCtx(context.Background(), g, [][]kg.NodeID{{}, {3}}, Options{})
	for i, x := range got[0] {
		if x != 0 {
			t.Fatalf("empty query node %d = %v, want 0", i, x)
		}
	}
	want := refPersonalizedSum(g, []kg.NodeID{3}, Options{})
	for i := range want {
		if got[1][i] != want[i] {
			t.Fatalf("node %d: %v != %v", i, got[1][i], want[i])
		}
	}
	empty := kg.NewBuilder(0).Build()
	if got := PersonalizedSumMultiCtx(context.Background(), empty, [][]kg.NodeID{{}}, Options{}); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty graph: %+v", got)
	}
}

// TestPersonalizedSumMultiLongRun: a 300-iteration batch, whose solves
// reach bitwise fixed points long before their budget runs out, still
// equals the workspace fold bit for bit.
func TestPersonalizedSumMultiLongRun(t *testing.T) {
	// A small dense-ish graph saturates early and converges well within
	// the iteration budget.
	g := randomGraph(60, 600, 3)
	queries := [][]kg.NodeID{{1}, {2}, {1, 2, 3}, {4, 5}}
	opt := Options{Iterations: 300}
	got := PersonalizedSumMultiCtx(context.Background(), g, queries, opt)
	for qi, q := range queries {
		want := refPersonalizedSum(g, q, opt)
		for i := range want {
			if got[qi][i] != want[i] {
				t.Fatalf("query %d node %d: %v != %v", qi, i, got[qi][i], want[i])
			}
		}
	}
}

// TestPersonalizedSumMultiYago pins the batch path on the benchmark
// workload: nested actor/politician queries over the half-scale YAGO-like
// graph.
func TestPersonalizedSumMultiYago(t *testing.T) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5})
	g := d.Graph
	var queries [][]kg.NodeID
	for size := 2; size <= 6; size++ {
		q, err := d.Scenario("actors").QueryIDs(g, size)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	got := PersonalizedSumMultiCtx(context.Background(), g, queries, Options{})
	for qi, q := range queries {
		want := refPersonalizedSum(g, q, Options{})
		for i := range want {
			if got[qi][i] != want[i] {
				t.Fatalf("query %d node %d: batch %v != sequential %v", qi, i, got[qi][i], want[i])
			}
		}
	}
}

package ctxsel

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/metapath"
)

// scoresWithPathsReference is the seed implementation of ScoresWithPaths:
// two fresh n-vectors per (metapath, query node) pair and dense sweeps.
// Kept as the oracle the sparse rewrite is verified and benchmarked
// against.
func scoresWithPathsReference(s ContextRW, g *kg.Graph, query []kg.NodeID, mined []metapath.Mined) []float64 {
	s = s.withDefaults()
	scores := make([]float64, g.NumNodes())
	if len(mined) == 0 || len(query) == 0 {
		return scores
	}
	inQuery := make(map[kg.NodeID]bool, len(query))
	for _, q := range query {
		inQuery[q] = true
	}
	type kept struct {
		count int64
		share []float64
	}
	var keptPaths []kept
	for _, mp := range mined {
		if len(keptPaths) == s.NumPaths {
			break
		}
		var share []float64
		for _, q := range query {
			counts, _ := metapath.CountPathsInto(g, q, mp.Path, &metapath.Scratch{})
			denom := 0.0
			for id, c := range counts {
				if c != 0 && !inQuery[kg.NodeID(id)] {
					denom += c
				}
			}
			if denom == 0 {
				continue
			}
			if share == nil {
				share = make([]float64, len(counts))
			}
			for id, c := range counts {
				if c != 0 && !inQuery[kg.NodeID(id)] {
					share[id] += c / denom
				}
			}
		}
		if share != nil {
			keptPaths = append(keptPaths, kept{count: mp.Count, share: share})
		}
	}
	var total int64
	for _, kp := range keptPaths {
		total += kp.count
	}
	if total == 0 {
		return scores
	}
	for _, kp := range keptPaths {
		prM := float64(kp.count) / float64(total)
		for id, sh := range kp.share {
			if sh != 0 {
				scores[id] += prM * sh
			}
		}
	}
	return scores
}

func minedFor(t testing.TB, g *kg.Graph, query []kg.NodeID, walks int) []metapath.Mined {
	t.Helper()
	mined := metapath.Mine(g, query, metapath.MineOptions{Walks: walks, Seed: 7})
	if len(mined) == 0 {
		t.Fatal("mining found no metapaths")
	}
	return mined
}

// TestScoresWithPathsMatchesReference: the touched-list scoring pass and
// the dense seed implementation agree within 1e-12.
func TestScoresWithPathsMatchesReference(t *testing.T) {
	g, query, _ := communityGraph()
	mined := minedFor(t, g, query, 20000)
	for _, numPaths := range []int{1, 3, 5, 10} {
		s := ContextRW{NumPaths: numPaths}
		got := s.ScoresWithPaths(g, query, mined)
		want := scoresWithPathsReference(s, g, query, mined)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("|M|=%d node %d: sparse %v reference %v", numPaths, i, got[i], want[i])
			}
		}
	}
}

// TestScoresWithPathsRepeatedCallsIdentical: pooled buffers must come back
// clean — repeated calls give bit-identical results.
func TestScoresWithPathsRepeatedCallsIdentical(t *testing.T) {
	g, query, _ := communityGraph()
	mined := minedFor(t, g, query, 20000)
	s := ContextRW{}
	a := s.ScoresWithPaths(g, query, mined)
	for run := 0; run < 5; run++ {
		b := s.ScoresWithPaths(g, query, mined)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("run %d differs at node %d: %v vs %v", run, i, a[i], b[i])
			}
		}
	}
}

// TestScoresWithPathsAllocs: the sparse pass allocates strictly less than
// the reference (which allocates two n-vectors per (metapath, query node)
// pair).
func TestScoresWithPathsAllocs(t *testing.T) {
	g, query, _ := communityGraph()
	mined := minedFor(t, g, query, 20000)
	s := ContextRW{}
	s.ScoresWithPaths(g, query, mined) // warm the pools
	sparse := testing.AllocsPerRun(20, func() { s.ScoresWithPaths(g, query, mined) })
	ref := testing.AllocsPerRun(20, func() { scoresWithPathsReference(s, g, query, mined) })
	if sparse >= ref {
		t.Fatalf("sparse allocs/op %v not below reference %v", sparse, ref)
	}
}

// BenchmarkScoresWithPaths compares the touched-list scoring loop against
// the dense seed implementation on the half-scale YAGO-like graph with the
// five-actor query — the acceptance workload.
func BenchmarkScoresWithPaths(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5})
	g := d.Graph
	query, err := d.Scenario("actors").QueryIDs(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	mined := minedFor(b, g, query, 60000)
	s := ContextRW{}
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ScoresWithPaths(g, query, mined)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scoresWithPathsReference(s, g, query, mined)
		}
	})
}

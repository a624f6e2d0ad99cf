package ctxsel

import (
	"context"
	"math"
	"testing"

	"repro/internal/kg"
	"repro/internal/metapath"
)

// TestUniformVsWeightedMining: the informativeness-weighted walk must not
// be worse than uniform on a graph where the community is connected by a
// rare label and diluted by a frequent one.
func TestUniformVsWeightedMining(t *testing.T) {
	b := kg.NewBuilder(256)
	// Community: members share a rare "collaboratesWith" hub.
	for i := 0; i < 10; i++ {
		b.AddEdge(member(i), "collaboratesWith", "lab")
	}
	// Dilution: everyone (community + crowd) shares a frequent label.
	for i := 0; i < 10; i++ {
		b.AddEdge(member(i), "livesIn", "metropolis")
	}
	for i := 0; i < 60; i++ {
		b.AddEdge(crowd(i), "livesIn", "metropolis")
	}
	g := b.Build()
	q0, _ := g.NodeByName(member(0))
	q1, _ := g.NodeByName(member(1))
	query := []kg.NodeID{q0, q1}

	want := make(map[kg.NodeID]bool)
	for i := 2; i < 10; i++ {
		id, _ := g.NodeByName(member(i))
		want[id] = true
	}
	prec := func(uniform bool) float64 {
		s := ContextRW{Walks: 30000, Seed: 9, Uniform: uniform}
		items := Select(context.Background(), s, g, query, 8)
		hits := 0
		for _, it := range items {
			if want[kg.NodeID(it.ID)] {
				hits++
			}
		}
		if len(items) == 0 {
			return 0
		}
		return float64(hits) / float64(len(items))
	}
	weighted := prec(false)
	uniform := prec(true)
	if weighted+1e-9 < uniform {
		t.Fatalf("weighted precision %v < uniform %v", weighted, uniform)
	}
	if weighted < 0.5 {
		t.Fatalf("weighted precision %v too low", weighted)
	}
}

func member(i int) string { return "member" + string(rune('0'+i)) }
func crowd(i int) string {
	return "crowd" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestNumPathsSweepStable: increasing |M| must not lose previously found
// context members dramatically (the Table 3 insensitivity claim at module
// level).
func TestNumPathsSweepStable(t *testing.T) {
	g, query, want := communityGraph()
	mined := metapath.Mine(g, query, metapath.MineOptions{Walks: 30000, Seed: 5})
	var prev float64
	for _, m := range []int{2, 5, 10} {
		s := ContextRW{NumPaths: m, Walks: 30000, Seed: 5}
		scores := s.ScoresWithPaths(g, query, mined)
		items := rankingOf(scores, query, 10)
		hits := 0
		for _, it := range items {
			if want[kg.NodeID(it.ID)] {
				hits++
			}
		}
		f := float64(hits)
		if prev > 0 && f < prev/2 {
			t.Fatalf("|M|=%d dropped hits from %v to %v", m, prev, f)
		}
		if f > 0 {
			prev = f
		}
	}
}

func rankingOf(scores []float64, query []kg.NodeID, k int) []struct {
	ID    uint32
	Score float64
} {
	skip := make(map[kg.NodeID]bool)
	for _, q := range query {
		skip[q] = true
	}
	type item = struct {
		ID    uint32
		Score float64
	}
	var out []item
	for id, sc := range scores {
		if sc > 0 && !skip[kg.NodeID(id)] {
			out = append(out, item{uint32(id), sc})
		}
	}
	// Selection sort of the top k is fine at test sizes.
	for i := 0; i < len(out) && i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Score > out[best].Score {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestScoresSumBounded: σ is a weighted average of per-metapath shares,
// so the total score mass per query node is at most |Q| (each (m, n) pair
// distributes Pr(m) across nodes).
func TestScoresSumBounded(t *testing.T) {
	g, query, _ := communityGraph()
	s := ContextRW{Walks: 20000, Seed: 5}
	scores := s.Scores(context.Background(), g, [][]kg.NodeID{query}, nil)[0]
	sum := 0.0
	for _, v := range scores {
		if v < 0 {
			t.Fatal("negative score")
		}
		sum += v
	}
	if sum > float64(len(query))+1e-6 {
		t.Fatalf("score mass %v exceeds |Q| = %d", sum, len(query))
	}
	if math.IsNaN(sum) {
		t.Fatal("NaN score mass")
	}
}

// TestSelectRespectsK: no selector returns more than k items, and none
// pads a short context with zero-score (unreached) nodes.
func TestSelectRespectsK(t *testing.T) {
	g, query, _ := communityGraph()
	for _, s := range []Selector{ContextRW{Walks: 10000, Seed: 2}, RandomWalk{}, Jaccard{}, SimRank{}} {
		for _, k := range []int{1, 3, 7, 1000} {
			items := Select(context.Background(), s, g, query, k)
			if len(items) > k {
				t.Fatalf("%s: k=%d returned %d items", s.Name(), k, len(items))
			}
			for _, it := range items {
				if it.Score <= 0 {
					t.Fatalf("%s: k=%d returned zero-score item %v", s.Name(), k, it)
				}
			}
		}
	}
}

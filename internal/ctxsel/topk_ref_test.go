package ctxsel

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kg"
	"repro/internal/topk"
)

// refTopKFromScores is TopKFromScores as it was before the membership
// check moved behind the heap's threshold, kept verbatim as the reference
// the rewrite is pinned to.
func refTopKFromScores(scores []float64, query []kg.NodeID, k int) []topk.Item {
	skip := make(map[uint32]bool, len(query))
	for _, q := range query {
		skip[q] = true
	}
	sel := topk.New(min(k, len(scores)))
	for id, sc := range scores {
		if sc == 0 || skip[uint32(id)] {
			continue
		}
		sel.Offer(uint32(id), sc)
	}
	return sel.Ranked()
}

// TestTopKFromScoresMatchesReference: on random vectors with heavy ties and
// zeros, query nodes drawn from the top of the ranking and from around the
// cut, and duplicate query nodes, every k gives bitwise the reference's cut.
func TestTopKFromScoresMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{0, 0, 0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 0.9, 1}
	for trial := 0; trial < 300; trial++ {
		scores := make([]float64, 1+rng.Intn(400))
		for i := range scores {
			if rng.Intn(4) == 0 {
				scores[i] = rng.Float64() // a continuous tail between the tie levels
			} else {
				scores[i] = levels[rng.Intn(len(levels))]
			}
		}
		k := rng.Intn(60)
		ranked := refTopKFromScores(scores, nil, len(scores))
		var query []kg.NodeID
		for i, it := range ranked {
			top, atCut := i < 3, i >= k-2 && i <= k+2
			if (top || atCut) && rng.Intn(2) == 0 {
				query = append(query, kg.NodeID(it.ID))
			}
		}
		if len(query) > 0 && rng.Intn(4) == 0 {
			query = append(query, query[0])
		}
		rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
		for _, kk := range []int{0, 1, k, k + 1, len(scores), len(scores) + 5} {
			got, want := TopKFromScores(scores, query, kk), refTopKFromScores(scores, query, kk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, k %d, query %v:\n got  %v\n want %v", trial, kk, query, got, want)
			}
		}
	}
}

// BenchmarkTopKFromScores cuts k = 100 from a dense 140 000-float vector —
// the shape of a PageRank vector on the benchmark's largest graph, where
// every node scores above zero.
func BenchmarkTopKFromScores(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 140_000)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	query := []kg.NodeID{17, 40_000, 99_999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKSink = TopKFromScores(scores, query, 100)
	}
}

// topKSink keeps the benchmarked call from being optimized away.
var topKSink []topk.Item

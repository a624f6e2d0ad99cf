package ctxsel

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/kg"
	"repro/internal/topk"
)

// countdownCtx flips to Canceled after a fixed number of Err() probes: a
// deterministic cut at the k-th cancellation check, whatever the timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cut reports whether the countdown has expired, without probing it.
func (c *countdownCtx) cut() bool { return c.left.Load() < 0 }

func contractSelectors() []Selector {
	return []Selector{ContextRW{Walks: 5000, Seed: 7}, RandomWalk{}, Jaccard{}, SimRank{}}
}

// contractQueries is a batch with overlapping seeds, a repeated query, and
// a cross-community query on the communityGraph fixture.
func contractQueries(g *kg.Graph, query []kg.NodeID) [][]kg.NodeID {
	b0, _ := g.NodeByName("b00")
	return [][]kg.NodeID{query, {query[0]}, {query[0], b0}, query}
}

// TestScoresModesBitwise: for every selector, a query's score vector — and
// so its context — is bitwise the same whether it is scored alone, inside
// a barriered batch, or released from a stream; a stream releases every
// query exactly once and returns nil.
func TestScoresModesBitwise(t *testing.T) {
	g, query, _ := communityGraph()
	queries := contractQueries(g, query)
	ctx := context.Background()
	for _, s := range contractSelectors() {
		solo := make([][]float64, len(queries))
		for i, q := range queries {
			solo[i] = s.Scores(ctx, g, [][]kg.NodeID{q}, nil)[0]
			if len(solo[i]) != g.NumNodes() {
				t.Fatalf("%s: vector of %d scores for %d nodes", s.Name(), len(solo[i]), g.NumNodes())
			}
			want := TopKFromScores(solo[i], q, 8)
			if got := Select(ctx, s, g, q, 8); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Select(%v) = %v, want the top-k cut %v", s.Name(), q, got, want)
			}
		}
		batch := s.Scores(ctx, g, queries, nil)
		if len(batch) != len(queries) {
			t.Fatalf("%s: barriered batch returned %d vectors for %d queries", s.Name(), len(batch), len(queries))
		}
		streamed := make([][]float64, len(queries))
		ret := s.Scores(ctx, g, queries, func(i int, scores []float64) {
			if streamed[i] != nil {
				t.Fatalf("%s: query %d released twice", s.Name(), i)
			}
			streamed[i] = scores
		})
		if ret != nil {
			t.Fatalf("%s: streaming call returned %d vectors, want nil", s.Name(), len(ret))
		}
		for i := range queries {
			if !reflect.DeepEqual(batch[i], solo[i]) {
				t.Fatalf("%s: barriered vector %d differs from the solo one", s.Name(), i)
			}
			if streamed[i] == nil {
				t.Fatalf("%s: query %d never released", s.Name(), i)
			}
			if !reflect.DeepEqual(streamed[i], solo[i]) {
				t.Fatalf("%s: streamed vector %d differs from the solo one", s.Name(), i)
			}
		}
	}
}

// TestScoresCancelled: at every cut depth and in every mode, no ready
// fires once ctx is done, a released vector is complete (bitwise the
// uncut one), and a pre-cancelled call releases nothing.
func TestScoresCancelled(t *testing.T) {
	g, query, _ := communityGraph()
	queries := contractQueries(g, query)
	for _, s := range contractSelectors() {
		want := s.Scores(context.Background(), g, queries, nil)
		const budget = int64(1 << 30)
		full := newCountdownCtx(budget)
		s.Scores(full, g, queries, func(int, []float64) {})
		total := budget - full.left.Load()
		if total < int64(len(queries)) {
			t.Fatalf("%s: stream probed ctx only %d times for %d queries", s.Name(), total, len(queries))
		}
		for k := int64(0); k < total; k += 1 + total/16 {
			ctx := newCountdownCtx(k)
			released := 0
			s.Scores(ctx, g, queries, func(i int, scores []float64) {
				if ctx.cut() {
					t.Fatalf("%s: cut %d: query %d released after the cut", s.Name(), k, i)
				}
				if !reflect.DeepEqual(scores, want[i]) {
					t.Fatalf("%s: cut %d: released vector %d is not the complete one", s.Name(), k, i)
				}
				released++
			})
			if !ctx.cut() {
				t.Fatalf("%s: cut %d of %d never landed", s.Name(), k, total)
			}
			if k == 0 && released != 0 {
				t.Fatalf("%s: pre-cancelled stream released %d queries", s.Name(), released)
			}
			// Barriered and single calls under the same cut must return (not
			// hang or panic); their vectors are meaningless by contract.
			s.Scores(newCountdownCtx(k), g, queries, nil)
			if got := Select(newCountdownCtx(k), s, g, queries[0], 8); k == 0 && got != nil {
				t.Fatalf("%s: pre-cancelled Select returned %v", s.Name(), got)
			}
		}
	}
}

// TestAblationSelectorsMatchRecordedRankings pins Jaccard and SimRank to
// the rankings their candidate-offering Select produced before they
// became dense scorers (recorded at commit 517b393 on this fixture). The
// fixture is symmetric, so most of each ranking is a tie broken by ID —
// exactly what must not depend on offer order.
func TestAblationSelectorsMatchRecordedRankings(t *testing.T) {
	g, query, _ := communityGraph()
	b0, _ := g.NodeByName("b00")
	// tied is a run of equally scored items, IDs from..to then more.
	tied := func(score float64, from, to uint32, more ...uint32) []topk.Item {
		var out []topk.Item
		for id := from; id <= to; id++ {
			out = append(out, topk.Item{ID: id, Score: score})
		}
		for _, id := range more {
			out = append(out, topk.Item{ID: id, Score: score})
		}
		return out
	}
	mixed := []kg.NodeID{query[0], b0}
	cases := []struct {
		sel   Selector
		query []kg.NodeID
		want  []topk.Item
	}{
		{Jaccard{}, query, append(tied(1, 4, 13), tied(0.2, 14, 14, 17, 18, 19)...)},
		{Jaccard{}, mixed, tied(0.6, 3, 13, 17, 18, 19)},
		{SimRank{}, query, append(tied(0.2666666666666667, 4, 13), tied(0.08888888888888889, 14, 14, 17, 18, 19)...)},
		{SimRank{}, mixed, tied(0.1777777777777778, 3, 13, 17, 18, 19)},
	}
	for _, tc := range cases {
		got := Select(context.Background(), tc.sel, g, tc.query, len(tc.want))
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s %v:\n got  %v\n want %v", tc.sel.Name(), tc.query, got, tc.want)
		}
	}
}

// TestTopKFromScores: the shared cut skips query nodes and zero scores,
// honors k, and breaks score ties by the smaller ID.
func TestTopKFromScores(t *testing.T) {
	scores := []float64{0.9, 0.5, 0, 0.5, 0.7, 0.5}
	got := TopKFromScores(scores, []kg.NodeID{0}, 3)
	want := []topk.Item{{ID: 4, Score: 0.7}, {ID: 1, Score: 0.5}, {ID: 3, Score: 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopKFromScores = %v, want %v", got, want)
	}
	if all := TopKFromScores(scores, nil, 10); len(all) != 5 || all[0].ID != 0 {
		t.Fatalf("uncut ranking = %v, want the 5 nonzero scores led by node 0", all)
	}
}

// TestTopKFromScoresBoundsItsHeap: a context size far beyond the vector
// costs no more than the vector's candidates — a request cannot make the
// cut allocate in proportion to k.
func TestTopKFromScoresBoundsItsHeap(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i%7) / 7
	}
	const k = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := TopKFromScores(scores, []kg.NodeID{3}, k)
	runtime.ReadMemStats(&after)
	if len(got) != 84 {
		t.Fatalf("%d items, want the 84 non-zero non-query scores", len(got))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("k = %d on a 100-node vector allocated %d bytes", k, alloc)
	}
}

// TestTopKFromScoresPrefixInvariant pins what the engine's selector layer
// relies on: the cut at k is the first k items of the cut at any K ≥ k, and
// a cut holding fewer than K items is every candidate, so it answers any
// k. Vectors are random with heavy ties, many zeros, and query nodes drawn
// from the top of the ranking.
func TestTopKFromScoresPrefixInvariant(t *testing.T) {
	const K = 100
	rng := rand.New(rand.NewSource(5))
	levels := []float64{0, 0, 0, 0.125, 0.25, 0.25, 0.5, 1}
	for trial := 0; trial < 200; trial++ {
		scores := make([]float64, 1+rng.Intn(300))
		for i := range scores {
			scores[i] = levels[rng.Intn(len(levels))]
		}
		var query []kg.NodeID
		for id, s := range scores {
			if s == 1 && rng.Intn(3) == 0 {
				query = append(query, kg.NodeID(id))
			}
		}
		full := TopKFromScores(scores, query, K)
		for k := 0; k <= K; k++ {
			if got, want := TopKFromScores(scores, query, k), full[:min(k, len(full))]; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: cut at %d is not the prefix of the cut at %d:\n got  %v\n want %v", trial, k, K, got, want)
			}
		}
		if len(full) < K {
			for _, k := range []int{len(full), K + 1, len(scores), 1 << 30} {
				if got := TopKFromScores(scores, query, k); !reflect.DeepEqual(got, full) {
					t.Fatalf("trial %d: %d candidates, cut at %d = %v, want all of them", trial, len(full), k, got)
				}
			}
		}
	}
}

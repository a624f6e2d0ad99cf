package ppr

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// personalizedDense is the seed implementation: dense all-node sweeps with
// per-edge LabelWeight/WeightedOutDegree lookups and fresh allocations per
// call. Kept as the independent reference the frontier-sparse solve is
// verified (and benchmarked) against.
func personalizedDense(g *kg.Graph, seeds []kg.NodeID, opt Options) []float64 {
	opt = opt.withDefaults()
	n := g.NumNodes()
	p := make([]float64, n)
	next := make([]float64, n)
	if n == 0 || len(seeds) == 0 {
		return p
	}

	v := make([]float64, n)
	mass := 1 / float64(len(seeds))
	for _, s := range seeds {
		v[s] += mass
	}
	copy(p, v)

	c := opt.Damping
	for it := 0; it < opt.Iterations; it++ {
		for i := range next {
			next[i] = 0
		}
		dangling := 0.0
		for from := 0; from < n; from++ {
			pf := p[from]
			if pf == 0 {
				continue
			}
			adj := g.OutEdges(kg.NodeID(from))
			if len(adj) == 0 {
				dangling += pf
				continue
			}
			wd := g.WeightedOutDegree(kg.NodeID(from))
			if wd <= 0 {
				share := c * pf / float64(len(adj))
				for _, e := range adj {
					next[e.To] += share
				}
				continue
			}
			base := c * pf / wd
			for _, e := range adj {
				next[e.To] += base * g.LabelWeight(e.Label)
			}
		}
		restart := (1 - c) + c*dangling
		for i := range next {
			next[i] += restart * v[i]
		}
		p, next = next, p
	}
	return p
}

// TestSparseMatchesDenseRandom pins the solve to the seed semantics on
// randomized graphs: every seed's frontier-sparse vector, and the
// multi-seed sum, agree within 1e-12 with dense power iteration from each
// seed alone (summed for the query).
func TestSparseMatchesDenseRandom(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(3+rng.Intn(120), 1+rng.Intn(500), seed)
		seeds := make([]kg.NodeID, 1+rng.Intn(4))
		for i := range seeds {
			seeds[i] = kg.NodeID(rng.Intn(g.NumNodes()))
		}
		opt := Options{Iterations: 1 + rng.Intn(15)}
		denseSum := make([]float64, g.NumNodes())
		for _, s := range seeds {
			sparse := solo(g, s, opt)
			dense := personalizedDense(g, []kg.NodeID{s}, opt)
			for i := range dense {
				if math.Abs(sparse[i]-dense[i]) > 1e-12 {
					t.Fatalf("trial %d seed %d node %d: sparse %v dense %v",
						trial, s, i, sparse[i], dense[i])
				}
				denseSum[i] += dense[i]
			}
		}
		sum := PersonalizedSumCtx(context.Background(), g, seeds, opt)
		for i := range denseSum {
			if math.Abs(sum[i]-denseSum[i]) > 1e-12 {
				t.Fatalf("trial %d node %d: sum %v, dense sum %v", trial, i, sum[i], denseSum[i])
			}
		}
	}
}

// TestPersonalizedSumParallelismIdentical: the sum solved one seed after
// another on the calling goroutine has exactly the bits of the reference
// fold, which solves its seeds in blocks of four concurrent goroutines.
func TestPersonalizedSumParallelismIdentical(t *testing.T) {
	g := randomGraph(400, 1600, 99)
	seeds := []kg.NodeID{3, 7, 11, 19, 23, 29, 31, 37, 41}
	assertSameBits(t, "sum", PersonalizedSumCtx(context.Background(), g, seeds, Options{}), refPersonalizedSum(g, seeds, Options{}))
}

// TestPersonalizedParallelGatherIdentical: solves that saturate into dense
// gathers match the concurrent reference fold bit for bit, both for one
// seed and for a multi-seed sum. The graph is iterated enough to saturate
// the frontier into the dense regime.
func TestPersonalizedParallelGatherIdentical(t *testing.T) {
	g := randomGraph(2000, 12000, 21)
	seeds := []kg.NodeID{4, 9}
	opt := Options{Iterations: 12}
	for _, s := range seeds {
		want := refPersonalizedSum(g, []kg.NodeID{s}, opt)
		if countNonzero(want)*denseSwitchDivisor < g.NumNodes() {
			t.Fatalf("seed %d: test graph must saturate the solve into dense steps", s)
		}
		assertSameBits(t, "solo", solo(g, s, opt), want)
	}
	assertSameBits(t, "sum", PersonalizedSumCtx(context.Background(), g, seeds, opt), refPersonalizedSum(g, seeds, opt))
}

// TestPersonalizedConcurrentCallers: pooled workspaces must not be shared
// between concurrent runs.
func TestPersonalizedConcurrentCallers(t *testing.T) {
	g := randomGraph(300, 1200, 7)
	want := solo(g, 5, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := solo(g, 5, Options{})
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent run differs at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestPersonalizedAllocs: a single-seed sum whose solve saturates into
// dense gathers allocates a fixed handful of objects per call — the result
// and the fold's bookkeeping — never one per power-iteration step.
func TestPersonalizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector; alloc counts are meaningless")
	}
	g := randomGraph(2000, 12000, 55)
	const seed = kg.NodeID(17)
	if countNonzero(solo(g, seed, Options{}))*denseSwitchDivisor < g.NumNodes() { // also builds the CSR
		t.Fatal("test graph must saturate the solve into dense steps")
	}
	if allocs := testing.AllocsPerRun(50, func() { solo(g, seed, Options{}) }); allocs > 8 {
		t.Fatalf("single-seed sum allocates %v/op, want <= 8", allocs)
	}
}

// TestWorkspaceGrowsWithHeadroom: a graph that gains a few nodes, as one
// ingest batch interns them, keeps its pooled workspaces — one pooled at
// n serves n + 6 without allocating.
func TestWorkspaceGrowsWithHeadroom(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector; alloc counts are meaningless")
	}
	const n = 1000
	getWorkspace(n).release()
	allocs := testing.AllocsPerRun(50, func() {
		ws := getWorkspace(n + 6)
		if len(ws.p) != n+6 || len(ws.next) != n+6 {
			t.Fatalf("workspace vectors %d/%d long, want %d", len(ws.p), len(ws.next), n+6)
		}
		ws.release()
	})
	if allocs != 0 {
		t.Fatalf("growing a pooled workspace by 6 nodes allocates %v/op, want 0", allocs)
	}
}

// BenchmarkPersonalizedYago compares the frontier-sparse solve against
// the dense seed implementation on the half-scale YAGO-like graph — the
// acceptance workload for the rewrite.
func BenchmarkPersonalizedYago(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5})
	g := d.Graph
	q, err := d.Scenario("actors").QueryIDs(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	g.Transitions()
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solo(g, q[0], Options{})
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			personalizedDense(g, q[:1], Options{})
		}
	})
}

// BenchmarkPersonalizedSumYago measures the pooled multi-seed path on the
// same graph (the RandomWalk baseline's whole-query workload).
func BenchmarkPersonalizedSumYago(b *testing.B) {
	d := gen.YAGOLike(gen.YAGOConfig{Seed: 42, Scale: 0.5})
	g := d.Graph
	q, err := d.Scenario("actors").QueryIDs(g, 5)
	if err != nil {
		b.Fatal(err)
	}
	g.Transitions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PersonalizedSumCtx(context.Background(), g, q, Options{})
	}
}

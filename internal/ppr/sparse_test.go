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
// call. Kept as the reference the frontier-sparse rewrite is verified (and
// benchmarked) against.
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
			if opt.Uniform {
				share := c * pf / float64(len(adj))
				for _, e := range adj {
					next[e.To] += share
				}
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

// TestSparseMatchesDenseRandom pins the rewrite to the seed semantics:
// frontier-sparse and dense power iteration agree within 1e-12 on
// randomized graphs, weighted and uniform, single- and multi-seed.
func TestSparseMatchesDenseRandom(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(3+rng.Intn(120), 1+rng.Intn(500), seed)
		seeds := make([]kg.NodeID, 1+rng.Intn(4))
		for i := range seeds {
			seeds[i] = kg.NodeID(rng.Intn(g.NumNodes()))
		}
		for _, uniform := range []bool{false, true} {
			opt := Options{Uniform: uniform, Iterations: 1 + rng.Intn(15)}
			sparse := Personalized(g, seeds, opt)
			dense := personalizedDense(g, seeds, opt)
			for i := range dense {
				if math.Abs(sparse[i]-dense[i]) > 1e-12 {
					t.Fatalf("trial %d uniform=%v node %d: sparse %v dense %v",
						trial, uniform, i, sparse[i], dense[i])
				}
			}
		}
	}
}

// TestPersonalizedSumParallelismIdentical: the worker pool folds per-seed
// vectors in ascending seed order, so every Parallelism setting yields the
// exact same bits.
func TestPersonalizedSumParallelismIdentical(t *testing.T) {
	g := randomGraph(400, 1600, 99)
	seeds := []kg.NodeID{3, 7, 11, 19, 23, 29, 31, 37, 41}
	want := PersonalizedSumCtx(context.Background(), g, seeds, Options{Parallelism: 1})
	for _, par := range []int{2, 3, 4, len(seeds), len(seeds) + 5, 0} {
		got := PersonalizedSumCtx(context.Background(), g, seeds, Options{Parallelism: par})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Parallelism=%d differs at node %d: %v vs %v",
					par, i, got[i], want[i])
			}
		}
	}
}

// TestPersonalizedParallelGatherIdentical: Options.Parallelism also
// drives the row-partitioned dense gather, which must leave results
// bitwise identical for every worker count. The graph is sized past the
// gather kernel's serial-fallback threshold and iterated enough to
// saturate the frontier into the dense regime.
func TestPersonalizedParallelGatherIdentical(t *testing.T) {
	g := randomGraph(2000, 12000, 21)
	seeds := []kg.NodeID{4, 9}
	opt := Options{Iterations: 12}
	opt.Parallelism = 1
	want := Personalized(g, seeds, opt)
	for _, par := range []int{2, 3, 5, 8, 0} {
		opt.Parallelism = par
		got := Personalized(g, seeds, opt)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Parallelism=%d differs at node %d: %v vs %v", par, i, got[i], want[i])
			}
		}
	}
	// The same holds through the multi-seed pool, where leftover budget
	// flows to the gather.
	wantSum := PersonalizedSumCtx(context.Background(), g, seeds, Options{Iterations: 12, Parallelism: 1})
	for _, par := range []int{2, 6, 0} {
		got := PersonalizedSumCtx(context.Background(), g, seeds, Options{Iterations: 12, Parallelism: par})
		for i := range wantSum {
			if got[i] != wantSum[i] {
				t.Fatalf("Sum Parallelism=%d differs at node %d", par, i)
			}
		}
	}
}

// TestPersonalizedConcurrentCallers: pooled workspaces must not be shared
// between concurrent runs.
func TestPersonalizedConcurrentCallers(t *testing.T) {
	g := randomGraph(300, 1200, 7)
	want := Personalized(g, []kg.NodeID{5}, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := Personalized(g, []kg.NodeID{5}, Options{})
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

// TestPersonalizedAllocs: the sparse path allocates strictly less than the
// dense seed implementation (which allocates its three n-vectors per call).
func TestPersonalizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector; alloc counts are meaningless")
	}
	g := randomGraph(2000, 12000, 55)
	seeds := []kg.NodeID{17}
	// Parallelism 1 pins the serial kernels: this test audits the sparse
	// path's allocation discipline, and parallel gather spends a closure
	// allocation per extra worker per dense step by design.
	opt := Options{Parallelism: 1}
	g.Transitions() // exclude one-time CSR construction
	Personalized(g, seeds, opt)
	sparse := testing.AllocsPerRun(50, func() { Personalized(g, seeds, opt) })
	dense := testing.AllocsPerRun(50, func() { personalizedDense(g, seeds, opt) })
	if sparse >= dense {
		t.Fatalf("sparse allocs/op %v not below dense %v", sparse, dense)
	}
	if sparse > 3 {
		t.Fatalf("sparse Personalized allocates %v/op, want <= 3 (result + rare pool refills)", sparse)
	}
}

// BenchmarkPersonalizedYago compares the frontier-sparse rewrite against
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
			Personalized(g, q[:1], Options{})
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

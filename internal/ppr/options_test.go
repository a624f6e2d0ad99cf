package ppr

import (
	"context"
	"math"
	"testing"

	"repro/internal/kg"
)

// TestDampingExtremes: with damping near 0 the vector approaches the
// personalization; with damping near 1 mass spreads far from the seed.
func TestDampingExtremes(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	nearRestart := solo(g, a, Options{Damping: 1e-9, Iterations: 10})
	if nearRestart[a] < 0.999 {
		t.Fatalf("damping→0: seed mass %v, want ≈1", nearRestart[a])
	}
	spread := solo(g, a, Options{Damping: 0.99, Iterations: 50})
	if spread[a] > 0.5 {
		t.Fatalf("damping→1: seed kept %v of the mass", spread[a])
	}
}

// TestMoreIterationsConverge: successive iteration counts approach a fixed
// point — the change between 30 and 40 iterations is tiny.
func TestMoreIterationsConverge(t *testing.T) {
	g := randomGraph(80, 400, 5)
	s := kg.NodeID(3)
	p30 := solo(g, s, Options{Iterations: 30})
	p40 := solo(g, s, Options{Iterations: 40})
	diff := 0.0
	for i := range p30 {
		diff += math.Abs(p30[i] - p40[i])
	}
	if diff > 1e-3 {
		t.Fatalf("L1 change between 30 and 40 iterations = %v", diff)
	}
}

// TestMultiSeedPersonalization: a multi-seed query sums one full PageRank
// per seed — each seed keeps a whole unit of restart mass, and the sum
// is exactly the per-seed vectors added in seed-list order.
func TestMultiSeedPersonalization(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	opt := Options{Damping: 1e-9}
	p := PersonalizedSumCtx(context.Background(), g, []kg.NodeID{a, d}, opt)
	if math.Abs(p[a]-1) > 1e-6 || math.Abs(p[d]-1) > 1e-6 {
		t.Fatalf("two-seed restart masses = %v, %v; want 1 each", p[a], p[d])
	}
	if m := mass(p); math.Abs(m-2) > 1e-9 {
		t.Fatalf("two-seed sum holds mass %v, want 2", m)
	}
	want := solo(g, a, opt)
	for i, x := range solo(g, d, opt) {
		want[i] += x
	}
	assertSameBits(t, "sum of solos", p, want)
}

// TestDuplicateSeedsAccumulate: listing a seed twice adds its vector
// twice, doubling its restart mass relative to another seed.
func TestDuplicateSeedsAccumulate(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	p := PersonalizedSumCtx(context.Background(), g, []kg.NodeID{a, a, d}, Options{Damping: 1e-9})
	if math.Abs(p[a]-2) > 1e-6 || math.Abs(p[d]-1) > 1e-6 {
		t.Fatalf("duplicated seed mass %v vs %v; want 2 and 1", p[a], p[d])
	}
	if m := mass(p); math.Abs(m-3) > 1e-9 {
		t.Fatalf("three-seed sum holds mass %v, want 3", m)
	}
}

// mass is the total score of a vector.
func mass(p []float64) float64 {
	m := 0.0
	for _, x := range p {
		m += x
	}
	return m
}

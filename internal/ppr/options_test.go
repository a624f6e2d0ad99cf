package ppr

import (
	"math"
	"testing"

	"repro/internal/kg"
)

// TestDampingExtremes: with damping near 0 the vector approaches the
// personalization; with damping near 1 mass spreads far from the seed.
func TestDampingExtremes(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	nearRestart := Personalized(g, []kg.NodeID{a}, Options{Damping: 1e-9, Iterations: 10})
	if nearRestart[a] < 0.999 {
		t.Fatalf("damping→0: seed mass %v, want ≈1", nearRestart[a])
	}
	spread := Personalized(g, []kg.NodeID{a}, Options{Damping: 0.99, Iterations: 50})
	if spread[a] > 0.5 {
		t.Fatalf("damping→1: seed kept %v of the mass", spread[a])
	}
}

// TestMoreIterationsConverge: successive iteration counts approach a fixed
// point — the change between 30 and 40 iterations is tiny.
func TestMoreIterationsConverge(t *testing.T) {
	g := randomGraph(80, 400, 5)
	s := kg.NodeID(3)
	p30 := Personalized(g, []kg.NodeID{s}, Options{Iterations: 30})
	p40 := Personalized(g, []kg.NodeID{s}, Options{Iterations: 40})
	diff := 0.0
	for i := range p30 {
		diff += math.Abs(p30[i] - p40[i])
	}
	if diff > 1e-3 {
		t.Fatalf("L1 change between 30 and 40 iterations = %v", diff)
	}
}

// TestMultiSeedPersonalization: seeds share the personalization mass.
func TestMultiSeedPersonalization(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	p := Personalized(g, []kg.NodeID{a, d}, Options{Damping: 1e-9})
	if math.Abs(p[a]-0.5) > 1e-6 || math.Abs(p[d]-0.5) > 1e-6 {
		t.Fatalf("two-seed restart masses = %v, %v; want 0.5 each", p[a], p[d])
	}
}

// TestDuplicateSeedsAccumulate: listing a seed twice doubles its restart
// mass relative to another seed.
func TestDuplicateSeedsAccumulate(t *testing.T) {
	g := chain()
	a, _ := g.NodeByName("a")
	d, _ := g.NodeByName("d")
	p := Personalized(g, []kg.NodeID{a, a, d}, Options{Damping: 1e-9})
	if !(p[a] > 1.9*p[d]) {
		t.Fatalf("duplicated seed mass %v vs %v", p[a], p[d])
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEmptyPiNonzeroObservation is the regression test for the empty-π
// bug: a nonzero observation under an empty (or all-zero) distribution is
// impossible and must report maximal notability, consistent with the
// impossible-category branch — not P = 1 ("nothing to reject").
func TestEmptyPiNonzeroObservation(t *testing.T) {
	m := Multinomial{}
	for name, pi := range map[string][]float64{
		"empty":    {},
		"all-zero": {0, 0, 0},
	} {
		r := m.Test(pi, []int{0, 2, 1})
		if r.P != 0 {
			t.Fatalf("%s π: P = %v, want 0", name, r.P)
		}
		if !math.IsInf(r.LogProbX, -1) {
			t.Fatalf("%s π: LogProbX = %v, want -Inf", name, r.LogProbX)
		}
		if r.P > DefaultAlpha {
			t.Fatalf("%s π: P = %v not notable at alpha %v", name, r.P, DefaultAlpha)
		}
	}
	// The truly trivial case is unchanged: nothing observed, nothing to
	// reject — even under an empty π.
	if r := m.Test(nil, []int{0, 0}); r.P != 1 || r.LogProbX != 0 {
		t.Fatalf("empty observation: %+v, want P=1 LogProbX=0", r)
	}
}

// TestCompositionsOverflowHonest is the regression test for the
// compositionsUpTo ok-flag: the doc promises ok == false when the count
// blows past the cap, and the int conversion must never wrap for huge
// limits.
func TestCompositionsOverflowHonest(t *testing.T) {
	if got, ok := compositionsUpTo(1000, 50, 100); ok || got <= 100 {
		t.Fatalf("capped compositions = %d/%v, want sentinel > limit with ok=false", got, ok)
	}
	// A limit near MaxInt used to feed a float64 far above MaxInt into
	// int(res + 0.5), which wraps negative; it must take the sentinel path.
	got, ok := compositionsUpTo(10000, 500, math.MaxInt-2)
	if ok {
		t.Fatal("astronomically many compositions reported ok=true")
	}
	if got <= 0 {
		t.Fatalf("compositions wrapped negative: %d", got)
	}
	// Exact values still come back ok.
	if got, ok := compositionsUpTo(5, 3, 1000); !ok || got != 21 {
		t.Fatalf("compositions(5,3) = %d/%v, want 21/true", got, ok)
	}
}

// TestNormalizeProbsLengthMismatch pins the silent-reshape semantics: the
// observation length is authoritative, extra π categories are dropped and
// their mass renormalized away, missing ones become zero-probability.
func TestNormalizeProbsLengthMismatch(t *testing.T) {
	// π longer than x: the third category is dropped, survivors renormalize.
	p := normalizeProbs([]float64{0.25, 0.25, 0.5}, 2)
	if len(p) != 2 || math.Abs(p[0]-0.5) > 1e-15 || math.Abs(p[1]-0.5) > 1e-15 {
		t.Fatalf("truncating normalizeProbs = %v, want [0.5 0.5]", p)
	}
	// π shorter than x: the padded category has probability zero, so
	// observing it is impossible.
	p = normalizeProbs([]float64{1, 1}, 3)
	if len(p) != 3 || p[2] != 0 || math.Abs(p[0]-0.5) > 1e-15 {
		t.Fatalf("padding normalizeProbs = %v, want [0.5 0.5 0]", p)
	}
	r := Multinomial{}.Test([]float64{1, 1}, []int{0, 0, 3})
	if r.P != 0 || !math.IsInf(r.LogProbX, -1) {
		t.Fatalf("observing the padded category should be impossible: %+v", r)
	}
	// Dropped π mass changes the test: the same observation under the
	// truncated π must match the explicitly truncated-and-renormalized π.
	long := Multinomial{}.Test([]float64{0.2, 0.3, 0.5}, []int{3, 1})
	short := Multinomial{}.Test([]float64{0.4, 0.6}, []int{3, 1})
	if math.Abs(long.P-short.P) > 1e-12 {
		t.Fatalf("truncated π diverges from its renormalized form: %v vs %v", long.P, short.P)
	}
}

// TestScratchReuseMatchesFresh: a reused Scratch across many
// differently-shaped tests must be invisible in the results.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(5)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		x := make([]int, k)
		n := rng.Intn(8)
		for j := 0; j < n; j++ {
			x[rng.Intn(k)]++
		}
		m := Multinomial{ExactLimit: 1 + rng.Intn(100), Samples: 500, Seed: 9}
		fresh := m.Test(pi, x)
		reused := m.TestScratch(pi, x, &s)
		if fresh != reused {
			t.Fatalf("trial %d: scratch reuse changed the result: %+v vs %+v", trial, fresh, reused)
		}
	}
}

// TestExactMonteCarloBoundaryProperty: nudging ExactLimit across the
// composition count of a fixed test flips exact enumeration to
// Monte-Carlo without moving P materially — the two regimes must agree
// at the switchover, not just asymptotically.
func TestExactMonteCarloBoundaryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64() + 0.1
		}
		n := 3 + rng.Intn(6)
		x := make([]int, k)
		for j := 0; j < n; j++ {
			x[rng.Intn(k)]++
		}
		comps, ok := compositionsUpTo(n, k, 1<<30)
		if !ok {
			return true // can't sit exactly on the boundary
		}
		exact := Multinomial{ExactLimit: comps, Seed: seed}.Test(pi, x)
		mc := Multinomial{ExactLimit: comps - 1, Samples: 60000, Seed: seed}.Test(pi, x)
		if !exact.Exact || mc.Exact {
			return false
		}
		return sequentialWithin(mc.P, exact.P, 60000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

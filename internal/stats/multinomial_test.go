package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBinomialTailExact(t *testing.T) {
	// π = (½, ½), x = (5, 0). Outcome probabilities are C(5,i)/32; the
	// outcomes at most as likely as x are (5,0) and (0,5): Pr_s = 2/32.
	m := Multinomial{}
	r := m.Test([]float64{0.5, 0.5}, []int{5, 0})
	if !r.Exact {
		t.Fatal("small case should be exact")
	}
	if math.Abs(r.P-2.0/32.0) > 1e-12 {
		t.Fatalf("P = %v, want 0.0625", r.P)
	}
}

func TestSkewedTailExact(t *testing.T) {
	// π = (0.9, 0.1), x = (0, 5): Pr(x) = 1e-5 and no other outcome is as
	// unlikely, so Pr_s = 1e-5.
	m := Multinomial{}
	r := m.Test([]float64{0.9, 0.1}, []int{0, 5})
	if !r.Exact {
		t.Fatal("should be exact")
	}
	if math.Abs(r.P-1e-5) > 1e-12 {
		t.Fatalf("P = %v, want 1e-5", r.P)
	}
}

func TestModalOutcomeNotSignificant(t *testing.T) {
	// The most likely outcome has Pr_s = 1: every outcome is at most as
	// likely as it.
	m := Multinomial{}
	r := m.Test([]float64{0.5, 0.5}, []int{2, 2})
	if math.Abs(r.P-1) > 1e-9 {
		t.Fatalf("P = %v, want 1", r.P)
	}
}

func TestImpossibleObservation(t *testing.T) {
	// Context never saw category 1; query has it: Pr_s = 0, maximally
	// notable (the "Merkel has a PhD" case).
	m := Multinomial{}
	r := m.Test([]float64{1, 0}, []int{0, 1})
	if r.P != 0 {
		t.Fatalf("P = %v, want 0", r.P)
	}
	if !math.IsInf(r.LogProbX, -1) {
		t.Fatal("LogProbX should be -Inf")
	}
	if r.P > DefaultAlpha {
		t.Fatalf("P = %v not notable at alpha %v", r.P, DefaultAlpha)
	}
}

func TestEmptyObservation(t *testing.T) {
	m := Multinomial{}
	r := m.Test([]float64{0.5, 0.5}, []int{0, 0})
	if r.P != 1 {
		t.Fatalf("P = %v, want 1 for empty observation", r.P)
	}
	if r.P <= DefaultAlpha {
		t.Fatal("empty observation should not be notable")
	}
}

func TestScoreThreshold(t *testing.T) {
	m := Multinomial{}
	// P = 0.0625 > 0.05: not notable.
	if p := m.Test([]float64{0.5, 0.5}, []int{5, 0}).P; p <= DefaultAlpha || math.Abs(p-0.0625) > 1e-12 {
		t.Fatalf("P = %v, want 0.0625 (not notable at %v)", p, DefaultAlpha)
	}
	// One more observation: P = 2/64 ≈ 0.031 ≤ 0.05: notable.
	if p := m.Test([]float64{0.5, 0.5}, []int{6, 0}).P; p > DefaultAlpha || math.Abs(p-2.0/64) > 1e-12 {
		t.Fatalf("P = %v, want 2/64 (notable at %v)", p, DefaultAlpha)
	}
}

func TestMonteCarloAgreesWithExact(t *testing.T) {
	pi := []float64{0.4, 0.3, 0.2, 0.1}
	x := []int{1, 1, 4, 2}
	exact := Multinomial{}.Test(pi, x)
	if !exact.Exact {
		t.Fatal("reference should be exact")
	}
	mc := Multinomial{ExactLimit: 1, Samples: 200000, Seed: 7}.Test(pi, x)
	if mc.Exact {
		t.Fatal("forced Monte-Carlo still ran exact")
	}
	if math.Abs(mc.P-exact.P) > 0.01 {
		t.Fatalf("MC P = %v, exact P = %v", mc.P, exact.P)
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	pi := []float64{0.5, 0.5}
	x := []int{40, 10}
	m := Multinomial{ExactLimit: 1, Samples: 5000, Seed: 3}
	a := m.Test(pi, x)
	b := m.Test(pi, x)
	if a.P != b.P {
		t.Fatalf("same seed, different P: %v vs %v", a.P, b.P)
	}
}

func TestLargeNUsesMonteCarlo(t *testing.T) {
	pi := []float64{0.25, 0.25, 0.25, 0.25}
	x := []int{100, 100, 100, 100}
	r := Multinomial{}.Test(pi, x)
	if r.Exact {
		t.Fatal("400 observations over 4 categories should trigger Monte-Carlo")
	}
	if r.P < 0.5 {
		t.Fatalf("perfectly proportional observation should not be rejected: P = %v", r.P)
	}
}

func TestNormalization(t *testing.T) {
	// Unnormalized context counts must behave like their normalized form.
	a := Multinomial{}.Test([]float64{30, 10}, []int{0, 5})
	b := Multinomial{}.Test([]float64{0.75, 0.25}, []int{0, 5})
	if math.Abs(a.P-b.P) > 1e-12 {
		t.Fatalf("normalization changed result: %v vs %v", a.P, b.P)
	}
}

// Property: P is always within [0, 1], and the modal outcome always gets a
// higher P than an extreme tail outcome.
func TestPValueBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64() + 0.01
		}
		n := 1 + rng.Intn(8)
		x := make([]int, k)
		for j := 0; j < n; j++ {
			x[rng.Intn(k)]++
		}
		r := Multinomial{}.Test(pi, x)
		return r.P >= 0 && r.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: enumerating with the modal outcome as reference sums all
// outcome probabilities, which must be ~1.
func TestExactEnumerationSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64() + 0.05
		}
		n := 1 + rng.Intn(6)
		// Find the modal outcome by brute force over compositions.
		p := normalizeProbs(pi, k)
		best := make([]int, k)
		bestLP := math.Inf(-1)
		var rec func(cat, rem int, cur []int)
		rec = func(cat, rem int, cur []int) {
			if cat == k-1 {
				cur[cat] = rem
				if lp := logMultinomialProb(p, cur, n); lp > bestLP {
					bestLP = lp
					copy(best, cur)
				}
				return
			}
			for c := 0; c <= rem; c++ {
				cur[cat] = c
				rec(cat+1, rem-c, cur)
			}
		}
		rec(0, n, make([]int, k))
		r := Multinomial{}.Test(pi, best)
		return r.Exact && math.Abs(r.P-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositionsUpTo(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{5, 2, 6},  // C(6,1)
		{5, 3, 21}, // C(7,2)
		{4, 4, 35}, // C(7,3)
		{10, 1, 1}, // single category
		{0, 3, 1},  // empty observation
		{3, 2, 4},  // C(4,1)
	}
	for _, c := range cases {
		got, ok := compositionsUpTo(c.n, c.k, 1000000)
		if !ok || got != c.want {
			t.Fatalf("compositions(%d,%d) = %d/%v, want %d", c.n, c.k, got, ok, c.want)
		}
	}
	// Cap kicks in for huge counts.
	got, _ := compositionsUpTo(1000, 50, 100)
	if got <= 100 {
		t.Fatalf("capped compositions = %d, want > limit", got)
	}
}

func TestNormalizeHelpers(t *testing.T) {
	n := Normalize([]float64{2, 0, 2})
	if n[0] != 0.5 || n[1] != 0 || n[2] != 0.5 {
		t.Fatalf("Normalize = %v", n)
	}
	if out := Normalize([]float64{0, 0}); out[0] != 0 || out[1] != 0 {
		t.Fatalf("Normalize zeros = %v", out)
	}
	ni := NormalizeInts([]int{1, 3})
	if ni[0] != 0.25 || ni[1] != 0.75 {
		t.Fatalf("NormalizeInts = %v", ni)
	}
	// Negative counts are ignored rather than poisoning the sum.
	neg := Normalize([]float64{-5, 5})
	if neg[0] != 0 || neg[1] != 1 {
		t.Fatalf("Normalize negative = %v", neg)
	}
}

// The benchmarks below run the two test regimes at the shapes a cold
// ContextRW request produces (shapeCase): exact enumeration over a handful
// of draws and tens-to-hundreds of categories, Monte-Carlo at n = 25–60
// draws over up to 300 categories, sampled until the sequential stop. Together
// they are the exact-vs-Monte-Carlo time split of the serving workload,
// reproducible from this package alone.

var benchSink Result

func BenchmarkExactTest(b *testing.B) {
	for _, sh := range exactShapes {
		for _, obs := range []string{"mode", "mid", "rare"} {
			pi, x := shapeCase(sh.k, sh.n, 1, obs)
			b.Run(fmt.Sprintf("n=%d,k=%d/%s", sh.n, sh.k, obs), func(b *testing.B) {
				var s Scratch
				m := Multinomial{}
				if r := m.TestScratch(pi, x, &s); !r.Exact {
					b.Fatal("shape left the exact regime")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = m.TestScratch(pi, x, &s)
				}
			})
		}
	}
}

func BenchmarkMonteCarloTest(b *testing.B) {
	for _, sh := range monteCarloShapes {
		pi, x := shapeCase(sh.k, sh.n, 1, "mid")
		b.Run(fmt.Sprintf("n=%d,k=%d", sh.n, sh.k), func(b *testing.B) {
			var s Scratch
			m := Multinomial{Seed: 1}
			if r := m.TestScratch(pi, x, &s); r.Exact {
				b.Fatal("shape left the Monte-Carlo regime")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = m.TestScratch(pi, x, &s)
			}
		})
	}
}

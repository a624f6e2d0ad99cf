package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Monte-Carlo estimates track the exact test within a loose
// tolerance across random small problems.
func TestMonteCarloTracksExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64() + 0.05
		}
		n := 2 + rng.Intn(6)
		x := make([]int, k)
		for j := 0; j < n; j++ {
			x[rng.Intn(k)]++
		}
		exact := Multinomial{}.Test(pi, x)
		if !exact.Exact {
			return true // out of exact range; nothing to compare
		}
		mc := Multinomial{ExactLimit: 1, Samples: 30000, Seed: seed}.Test(pi, x)
		return math.Abs(mc.P-exact.P) < 0.03
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an observation to the most extreme category never
// increases the significance probability (more extreme evidence is never
// less significant) for binomial cases.
func TestMonotoneExtremityProperty(t *testing.T) {
	m := Multinomial{}
	pi := []float64{0.7, 0.3}
	prev := 1.1
	for extra := 0; extra <= 8; extra++ {
		r := m.Test(pi, []int{0, 2 + extra})
		if r.P > prev+1e-12 {
			t.Fatalf("P increased from %v to %v at extra=%d", prev, r.P, extra)
		}
		prev = r.P
	}
}

// The Monte-Carlo +1 correction keeps estimates strictly positive for
// possible outcomes.
func TestMonteCarloNeverZeroForPossible(t *testing.T) {
	m := Multinomial{ExactLimit: 1, Samples: 500, Seed: 9}
	r := m.Test([]float64{0.5, 0.5}, []int{30, 0})
	if r.P <= 0 {
		t.Fatalf("MC P = %v, want > 0 for a possible outcome", r.P)
	}
}

// Exhaustive check of the reference CDF search — the "first index whose
// cumulative value exceeds u" the sampler's guide-table scan must reproduce —
// against a linear scan.
func TestSearchCDF(t *testing.T) {
	cdf := []float64{0.1, 0.4, 0.9, 1.0}
	for _, u := range []float64{0, 0.05, 0.1, 0.25, 0.4, 0.65, 0.95, 0.999} {
		got := refSearchCDF(cdf, u)
		want := len(cdf) - 1
		for i, c := range cdf {
			if c > u {
				want = i
				break
			}
		}
		if got != want {
			t.Fatalf("refSearchCDF(%v) = %d, want %d", u, got, want)
		}
	}
}

// logMultinomialProb agrees with a direct factorial computation on small
// inputs.
func TestLogProbAgainstDirect(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	x := []int{2, 1, 1}
	// 4!/(2!1!1!) * 0.5^2*0.3*0.2 = 12 * 0.015 = 0.18
	got := math.Exp(logMultinomialProb(p, x, 4))
	if math.Abs(got-0.18) > 1e-12 {
		t.Fatalf("prob = %v, want 0.18", got)
	}
}

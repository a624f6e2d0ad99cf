package stats

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the optimized multinomial test (cached per-category logs,
// ln-factorial table, guide-table CDF search) to the straightforward
// implementation it replaced. The reference below is the pre-optimization
// code verbatim; the optimized paths must reproduce it bit for bit — every
// float operation happens in the same order on the same values, only their
// inputs are memoized. The one later change to the reference is the
// sequential stop (the h-th hit ends sampling), which refMonteCarlo applies
// exactly as Multinomial.monteCarlo does.

// refTest is the pre-optimization TestScratch.
func (m Multinomial) refTest(pi []float64, x []int) Result {
	m = m.withDefaults()
	n := 0
	for _, xi := range x {
		n += xi
	}
	if n == 0 {
		return Result{P: 1, Exact: true, LogProbX: 0}
	}
	p := normalizeProbs(pi, len(x))

	logX := refLogMultinomialProb(p, x, n)
	if math.IsInf(logX, -1) {
		return Result{P: 0, Exact: true, LogProbX: logX}
	}

	if comps, ok := compositionsUpTo(n, len(x), m.ExactLimit); ok && comps <= m.ExactLimit {
		return Result{P: m.refExact(p, logX, n, len(x)), Exact: true, LogProbX: logX}
	}
	return Result{P: m.refMonteCarlo(p, logX, n), Exact: false, LogProbX: logX}
}

func (m Multinomial) refExact(p []float64, logX float64, n, k int) float64 {
	logN := refLgammaInt(n + 1)
	total := 0.0
	comp := make([]int, k)
	var rec func(cat, remaining int, logAcc float64)
	rec = func(cat, remaining int, logAcc float64) {
		if cat == k-1 {
			comp[cat] = remaining
			lp := logAcc + refTermLog(p[cat], remaining)
			if math.IsInf(lp, -1) {
				return
			}
			lp += logN
			if lp <= logX+logProbTolerance {
				total += math.Exp(lp)
			}
			return
		}
		for c := 0; c <= remaining; c++ {
			comp[cat] = c
			lt := refTermLog(p[cat], c)
			if math.IsInf(lt, -1) {
				continue
			}
			rec(cat+1, remaining-c, logAcc+lt)
		}
	}
	rec(0, n, 0)
	if total > 1 {
		total = 1
	}
	return total
}

func (m Multinomial) refMonteCarlo(p []float64, logX float64, n int) float64 {
	rng := rand.New(rand.NewSource(m.Seed))
	cdf := make([]float64, len(p))
	acc := 0.0
	for i, pi := range p {
		acc += pi
		cdf[i] = acc
	}
	hits := 0
	counts := make([]int, len(p))
	for s := 0; s < m.Samples; s++ {
		for i := range counts {
			counts[i] = 0
		}
		for j := 0; j < n; j++ {
			counts[refSearchCDF(cdf, rng.Float64()*acc)]++
		}
		if refLogMultinomialProb(p, counts, n) <= logX+logProbTolerance {
			hits++
			if hits == seqHits {
				return float64(seqHits) / float64(s+1)
			}
		}
	}
	return float64(hits+1) / float64(m.Samples+1)
}

func refSearchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func refLogMultinomialProb(p []float64, x []int, n int) float64 {
	lp := refLgammaInt(n + 1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		t := refTermLog(pIndex(p, i), xi)
		if math.IsInf(t, -1) {
			return math.Inf(-1)
		}
		lp += t
	}
	return lp
}

func refTermLog(p float64, c int) float64 {
	if c == 0 {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return float64(c)*math.Log(p) - refLgammaInt(c+1)
}

func refLgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// TestOptimizedMatchesReferenceBitwise drives randomized observations
// through both implementations, covering the exact regime, the Monte-Carlo
// regime, zero-probability categories, impossible observations, and
// observation vectors longer than π. Equality is exact — ==, not a
// tolerance.
func TestOptimizedMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(12)
		pi := make([]float64, k)
		for i := range pi {
			if rng.Intn(5) == 0 {
				pi[i] = 0 // zero-probability category
			} else {
				pi[i] = rng.Float64()
			}
		}
		x := make([]int, k)
		n := rng.Intn(40)
		for j := 0; j < n; j++ {
			x[rng.Intn(k)]++
		}
		m := Multinomial{Seed: int64(trial)}
		if trial%3 == 0 {
			m.ExactLimit = 1 // force Monte-Carlo
			m.Samples = 500
		}
		got := m.Test(pi, x)
		want := m.refTest(pi, x)
		if got != want {
			t.Fatalf("trial %d (k=%d n=%d): optimized %+v != reference %+v", trial, k, n, got, want)
		}
	}
}

// TestNegativeBudgetsUseDefaults: negative Samples/ExactLimit (reachable
// through the facade's TestSamples/TestExactLimit options) must select
// the defaults rather than run a zero-sample Monte-Carlo estimate, whose
// +1-corrected p-value divides by zero.
func TestNegativeBudgetsUseDefaults(t *testing.T) {
	pi := []float64{0.5, 0.3, 0.2}
	x := []int{20, 1, 1}
	want := Multinomial{Seed: 3}.Test(pi, x)
	got := Multinomial{Seed: 3, Samples: -1, ExactLimit: -5}.Test(pi, x)
	if got != want {
		t.Fatalf("negative budgets: %+v, want defaults %+v", got, want)
	}
	if math.IsInf(got.P, 0) || got.P < 0 || got.P > 1 {
		t.Fatalf("P = %v out of range", got.P)
	}
}

// TestOptimizedMatchesReferenceLargeDraws exercises the guide-table search
// with heavier draw counts and more categories, Monte-Carlo only.
func TestOptimizedMatchesReferenceLargeDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		k := 20 + rng.Intn(200)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.ExpFloat64()
		}
		x := make([]int, k)
		for j := 0; j < 60+rng.Intn(100); j++ {
			x[rng.Intn(k)]++
		}
		m := Multinomial{Seed: int64(trial), ExactLimit: 1, Samples: 300}
		got := m.Test(pi, x)
		want := m.refTest(pi, x)
		if got != want {
			t.Fatalf("trial %d (k=%d): optimized %+v != reference %+v", trial, k, got, want)
		}
	}
}

// exactShapes and monteCarloShapes are the (draws n, categories k) shapes a
// cold ContextRW request sends to TestScratch: exact enumeration sees a
// handful of draws over tens to hundreds of categories, Monte-Carlo 25–60
// draws over up to 300. The Monte-Carlo category counts straddle the 64-bit
// word boundaries of the sampler's category set.
var (
	exactShapes      = []struct{ n, k int }{{5, 26}, {4, 31}, {2, 400}, {12, 4}}
	monteCarloShapes = []struct{ n, k int }{{25, 63}, {30, 64}, {33, 65}, {40, 128}, {52, 129}, {60, 300}}
)

// shapeCase builds a deterministic (π, x) with k categories and n draws:
// exponential category masses with every 7th category impossible, and an
// observation placed by obs — "mode" is the likeliest outcome, each draw
// going where it raises the probability most (P = 1), "rare" puts them all on the least likely possible category
// (P near 0), "mid" draws them uniformly over the possible categories.
func shapeCase(k, n int, seed int64, obs string) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	pi := make([]float64, k)
	rarest := -1
	var possible []int
	for i := range pi {
		if k > 4 && i%7 == 3 {
			continue
		}
		pi[i] = rng.ExpFloat64() + 1e-3
		possible = append(possible, i)
		if rarest < 0 || pi[i] < pi[rarest] {
			rarest = i
		}
	}
	x := make([]int, k)
	switch obs {
	case "mode":
		for j := 0; j < n; j++ {
			best := possible[0]
			for _, i := range possible {
				if pi[i]/float64(x[i]+1) > pi[best]/float64(x[best]+1) {
					best = i
				}
			}
			x[best]++
		}
	case "rare":
		x[rarest] = n
	default:
		for j := 0; j < n; j++ {
			x[possible[rng.Intn(len(possible))]]++
		}
	}
	return pi, x
}

// TestMonteCarloShapesMatchReference: the sampler at the serving workload's
// shapes and the default 20 000 samples, over distributions with impossible
// categories and category counts on both sides of the drawn-set's word
// boundaries.
func TestMonteCarloShapesMatchReference(t *testing.T) {
	for _, sh := range monteCarloShapes {
		for seed := int64(1); seed <= 2; seed++ {
			pi, x := shapeCase(sh.k, sh.n, seed, "mid")
			m := Multinomial{Seed: seed}
			got, want := m.Test(pi, x), m.refTest(pi, x)
			if got != want || got.Exact {
				t.Fatalf("n=%d k=%d seed %d: optimized %+v != reference %+v", sh.n, sh.k, seed, got, want)
			}
		}
	}
}

// TestExactShapesMatchReference: exact enumeration at the workload's shapes
// with observations from the likeliest (P near 1, nothing skipped) to the
// least likely (P near 0, nearly every subtree skipped), reusing one Scratch.
func TestExactShapesMatchReference(t *testing.T) {
	var s Scratch
	for _, sh := range exactShapes {
		lo, hi := 1.0, 0.0
		for _, obs := range []string{"mode", "mid", "rare"} {
			for seed := int64(1); seed <= 3; seed++ {
				pi, x := shapeCase(sh.k, sh.n, seed, obs)
				got, want := Multinomial{}.TestScratch(pi, x, &s), Multinomial{}.refTest(pi, x)
				if got != want || !got.Exact {
					t.Fatalf("n=%d k=%d %s seed %d: optimized %+v != reference %+v", sh.n, sh.k, obs, seed, got, want)
				}
				lo, hi = math.Min(lo, got.P), math.Max(hi, got.P)
			}
		}
		if lo > 0.01 || hi < 0.9 {
			t.Fatalf("n=%d k=%d: P ranged over [%v, %v], want both tails covered", sh.n, sh.k, lo, hi)
		}
	}
}

// TestExactSkewedMatchesReference sweeps small exact problems whose category
// masses span twenty orders of magnitude, with typical and atypical
// observations, so thresholds fall everywhere between the likeliest and the
// least likely outcome of the skipped subtrees.
func TestExactSkewedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 600; trial++ {
		k := 2 + rng.Intn(9)
		pi := make([]float64, k)
		for i := range pi {
			if rng.Intn(6) != 0 {
				pi[i] = math.Exp(-46 * rng.Float64() * rng.Float64())
			}
		}
		pi[rng.Intn(k)] = 1
		cdf := make([]float64, k)
		acc := 0.0
		for i, v := range pi {
			acc += v
			cdf[i] = acc
		}
		x := make([]int, k)
		for j, n := 0, 1+rng.Intn(9); j < n; j++ {
			c := rng.Intn(k)
			if trial%2 == 0 {
				c = refSearchCDF(cdf, rng.Float64()*acc)
			}
			x[c]++
		}
		got, want := Multinomial{}.Test(pi, x), Multinomial{}.refTest(pi, x)
		if got != want {
			t.Fatalf("trial %d π=%v x=%v: optimized %+v != reference %+v", trial, pi, x, got, want)
		}
	}
}

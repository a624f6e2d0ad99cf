package stats

// Tests of the sequential Monte-Carlo contract: where sampling stops, what
// a test that reaches the cap returns, and the decisions the stop makes on
// the serving workload's own (π, x) shapes.

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// refHits is the naive sampling loop: the reference sampler draws every
// one of m.Samples samples, and each reports whether it was at most as
// likely as x.
func (m Multinomial) refHits(pi []float64, x []int) []bool {
	m = m.withDefaults()
	n := 0
	for _, xi := range x {
		n += xi
	}
	p := normalizeProbs(pi, len(x))
	logX := refLogMultinomialProb(p, x, n)
	rng := rand.New(rand.NewSource(m.Seed))
	cdf := make([]float64, len(p))
	acc := 0.0
	for i, pi := range p {
		acc += pi
		cdf[i] = acc
	}
	hits := make([]bool, m.Samples)
	counts := make([]int, len(p))
	for s := range hits {
		for i := range counts {
			counts[i] = 0
		}
		for j := 0; j < n; j++ {
			counts[refSearchCDF(cdf, rng.Float64()*acc)]++
		}
		hits[s] = refLogMultinomialProb(p, counts, n) <= logX+logProbTolerance
	}
	return hits
}

// naiveSequentialP applies the stopping rule to a full hit sequence after
// the fact: the h-th hit at sample l gives h/l, and g < h hits over all L
// samples give (g+1)/(L+1). It also returns g, the hits counted up to the
// stop.
func naiveSequentialP(hits []bool) (float64, int) {
	g := 0
	for l, hit := range hits {
		if hit {
			g++
			if g == seqHits {
				return float64(seqHits) / float64(l+1), g
			}
		}
	}
	return float64(g+1) / float64(len(hits)+1), g
}

// TestSequentialStopMatchesNaiveLoop: Test's p-value is the stopping rule
// applied to the naive loop's hit sequence, bit for bit — on tests that
// stop at once (P = 1), tests that stop part-way, and tests that reach the
// cap, including a cap below h.
func TestSequentialStopMatchesNaiveLoop(t *testing.T) {
	stopped, capped := 0, 0
	for _, sh := range monteCarloShapes {
		for _, obs := range []string{"mode", "mid", "rare"} {
			for _, samples := range []int{60, 3000} {
				pi, x := shapeCase(sh.k, sh.n, 2, obs)
				m := Multinomial{Seed: 5, ExactLimit: 1, Samples: samples}
				got := m.Test(pi, x)
				want, g := naiveSequentialP(m.refHits(pi, x))
				if got.Exact || math.Float64bits(got.P) != math.Float64bits(want) {
					t.Fatalf("n=%d k=%d %s samples=%d: P = %v, naive loop %v", sh.n, sh.k, obs, samples, got.P, want)
				}
				if g == seqHits {
					stopped++
				} else {
					capped++
				}
			}
		}
	}
	if stopped == 0 || capped == 0 {
		t.Fatalf("%d stopped and %d capped tests, want both kinds", stopped, capped)
	}
}

// TestSequentialCapMatchesReference: a test with fewer than h hits at the
// cap draws the whole budget and returns the +1-corrected estimate of
// every sample, bitwise equal to the verbatim reference; so a rejecting
// test with P below h/Samples keeps the full-budget precision.
func TestSequentialCapMatchesReference(t *testing.T) {
	for _, sh := range monteCarloShapes {
		for seed := int64(1); seed <= 3; seed++ {
			pi, x := shapeCase(sh.k, sh.n, seed, "rare")
			m := Multinomial{Seed: seed, ExactLimit: 1, Samples: 4000}
			hits := m.refHits(pi, x)
			_, g := naiveSequentialP(hits)
			if g >= seqHits {
				t.Fatalf("n=%d k=%d seed %d: the rare observation hit %d times, want fewer than h", sh.n, sh.k, seed, g)
			}
			got, want := m.Test(pi, x), m.refTest(pi, x)
			if got != want || got.P != float64(g+1)/float64(m.Samples+1) {
				t.Fatalf("n=%d k=%d seed %d: %+v, reference %+v, full budget (%d+1)/(%d+1)", sh.n, sh.k, seed, got, want, g, m.Samples)
			}
			if got.P > DefaultAlpha {
				t.Fatalf("n=%d k=%d seed %d: P = %v, want a rejecting test", sh.n, sh.k, seed, got.P)
			}
		}
	}
}

// fullBudgetP is the Monte-Carlo estimate with the stop disabled: all of
// m.Samples samples drawn, as before the sequential rule.
func (m Multinomial) fullBudgetP(pi []float64, x []int) float64 {
	m = m.withDefaults()
	n := 0
	for _, xi := range x {
		n += xi
	}
	p := normalizeProbs(pi, len(x))
	logp := make([]float64, len(p))
	for i, pv := range p {
		logp[i] = math.Log(pv) // -Inf for an impossible category
	}
	return m.monteCarlo(p, logp, logMultinomialProbCached(p, logp, x, n), n, math.MaxInt, &Scratch{})
}

// TestFullBudgetMatchesReference: with the stop disabled the sampler is
// the reference loop's (hits+1)/(Samples+1) — what fullBudgetP's
// 200 000-sample decisions below are measured with.
func TestFullBudgetMatchesReference(t *testing.T) {
	for _, sh := range monteCarloShapes[:3] {
		pi, x := shapeCase(sh.k, sh.n, 3, "mid")
		m := Multinomial{Seed: 4, ExactLimit: 1, Samples: 2000}
		g := 0
		for _, hit := range m.refHits(pi, x) {
			if hit {
				g++
			}
		}
		if got, want := m.fullBudgetP(pi, x), float64(g+1)/float64(m.Samples+1); got != want {
			t.Fatalf("n=%d k=%d: full budget P = %v, reference %v", sh.n, sh.k, got, want)
		}
	}
}

// mcShapes reads testdata/mc_shapes.jsonl (see readShapes). The first nine
// are Monte-Carlo tests captured from 120 cold ContextRW requests on G_small
// (2–4 actors, ContextSize 100, Walks 200 000, Seed 1, inverse labels
// skipped); none rejects. The other thirteen keep a captured π and n and
// redraw x from π mixed with uniform draws, kept where the 20 000-sample P
// fell either side of α: at most 0.03 (six, two of them below h/Samples)
// or 0.08–0.2 (seven).
func mcShapes(t *testing.T) (pis [][]float64, xs [][]int) {
	return readShapes(t, "testdata/mc_shapes.jsonl")
}

// readShapes reads one (π, x) per line of a JSONL file, π as the context's
// raw counts.
func readShapes(tb testing.TB, name string) (pis [][]float64, xs [][]int) {
	f, err := os.Open(name)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var c struct {
			Pi []int `json:"pi"`
			X  []int `json:"x"`
		}
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			tb.Fatal(err)
		}
		pi := make([]float64, len(c.Pi))
		for i, v := range c.Pi {
			pi[i] = float64(v)
		}
		pis, xs = append(pis, pi), append(xs, c.X)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return pis, xs
}

// TestSequentialDecisionMatchesFullBudget: on every committed shape, the
// engine's test (default cap, Seed 1) rejects at α = 0.05 exactly when a
// 200 000-sample full-budget test does.
func TestSequentialDecisionMatchesFullBudget(t *testing.T) {
	pis, xs := mcShapes(t)
	if len(pis) != 22 {
		t.Fatalf("read %d shapes, want 22", len(pis))
	}
	rejects := 0
	for i := range pis {
		got := Multinomial{Seed: 1}.Test(pis[i], xs[i])
		if got.Exact {
			t.Fatalf("shape %d left the Monte-Carlo regime", i)
		}
		full := Multinomial{Seed: 1, Samples: 200000}.fullBudgetP(pis[i], xs[i])
		if (got.P <= DefaultAlpha) != (full <= DefaultAlpha) {
			t.Fatalf("shape %d: sequential P = %v, 200 000-sample P = %v: decisions differ", i, got.P, full)
		}
		if full <= DefaultAlpha {
			rejects++
		}
	}
	if rejects != 6 {
		t.Fatalf("%d shapes reject, want 6", rejects)
	}
}

package stats

// Tests of the exact path against refExact on the serving workload's own
// (π, x) shapes and on fuzzed small ones, and of TestScratch's steady-state
// allocations on both paths.

import (
	"math"
	"math/rand"
	"testing"
)

// exactCaptured reads testdata/exact_shapes.jsonl: 53 exact-path tests
// captured from 120 cold ContextRW requests on G_small (2–4 actors drawn
// from a math/rand source seeded 1, ContextSize 100, Walks 200 000, Seed 1,
// inverse labels skipped), which ran 2 071 exact tests, 137 of them over at
// least 10 000 compositions. Kept: all nine of those heavy tests that reject
// at 0.05, eighteen heavy ones that accept (n = 4–5 over k = 26–31, up to
// 142 506 compositions), the tests on either side of 0.01 and 0.05 nearest
// them, and a spread of lighter rejecting and accepting tests.
func exactCaptured(tb testing.TB) (pis [][]float64, xs [][]int) {
	return readShapes(tb, "testdata/exact_shapes.jsonl")
}

// TestExactDecisionsMatchReference: on every captured shape the exact
// path's P is within exactEps of the textbook enumeration's, with the same
// decisions at α = 0.01 and 0.05.
func TestExactDecisionsMatchReference(t *testing.T) {
	pis, xs := exactCaptured(t)
	if len(pis) != 53 {
		t.Fatalf("read %d shapes, want 53", len(pis))
	}
	var s Scratch
	heavy, rejects := 0, 0
	for i := range pis {
		got, want := Multinomial{}.TestScratch(pis[i], xs[i], &s), Multinomial{}.refTest(pis[i], xs[i])
		if !got.Exact || !matchesRef(got, want) {
			t.Fatalf("shape %d: %+v, reference %+v", i, got, want)
		}
		n := 0
		for _, c := range xs[i] {
			n += c
		}
		if comps, _ := compositionsUpTo(n, len(xs[i]), math.MaxInt32); comps >= 10000 {
			heavy++
		}
		if want.P <= DefaultAlpha {
			rejects++
		}
	}
	if heavy != 27 || rejects != 21 {
		t.Fatalf("%d heavy shapes and %d rejecting ones, want 27 and 21", heavy, rejects)
	}
}

// FuzzExactMatchesReference: small random (π, x) with impossible categories,
// category masses spread over twenty orders of magnitude, and observations
// from the modal outcome to all draws on the rarest category.
func FuzzExactMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*3), uint8(seed*5), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, kb, nb, obs uint8) {
		rng := rand.New(rand.NewSource(seed))
		k, n := 1+int(kb)%10, int(nb)%10
		pi := make([]float64, k)
		for i := range pi {
			if rng.Intn(6) != 0 {
				pi[i] = math.Exp(-46 * rng.Float64() * rng.Float64())
			}
		}
		x := make([]int, k)
		rarest := -1
		for i, v := range pi {
			if v > 0 && (rarest < 0 || v < pi[rarest]) {
				rarest = i
			}
		}
		switch obs % 4 {
		case 0: // modal: each draw where it raises the probability most
			for j := 0; j < n && rarest >= 0; j++ {
				best := rarest
				for i, v := range pi {
					if v/float64(x[i]+1) > pi[best]/float64(x[best]+1) {
						best = i
					}
				}
				x[best]++
			}
		case 1: // drawn from π
			cdf := make([]float64, k)
			acc := 0.0
			for i, v := range pi {
				acc += v
				cdf[i] = acc
			}
			for j := 0; j < n && acc > 0; j++ {
				x[refSearchCDF(cdf, rng.Float64()*acc)]++
			}
		case 2: // uniform over the categories, impossible ones included
			for j := 0; j < n; j++ {
				x[rng.Intn(k)]++
			}
		default: // all on the rarest possible category
			if rarest >= 0 {
				x[rarest] = n
			}
		}
		got, want := Multinomial{}.Test(pi, x), Multinomial{}.refTest(pi, x)
		if !got.Exact || !matchesRef(got, want) {
			t.Fatalf("π=%v x=%v: %+v, reference %+v", pi, x, got, want)
		}
	})
}

// TestScratchAllocs: a reused Scratch makes TestScratch allocation-free on
// both paths, at the serving workload's shapes.
func TestScratchAllocs(t *testing.T) {
	var s Scratch
	for _, sh := range exactShapes {
		for _, obs := range []string{"mode", "mid", "rare"} {
			pi, x := shapeCase(sh.k, sh.n, 1, obs)
			if r := (Multinomial{}).TestScratch(pi, x, &s); !r.Exact {
				t.Fatalf("n=%d k=%d left the exact regime", sh.n, sh.k)
			}
			if a := testing.AllocsPerRun(5, func() { Multinomial{}.TestScratch(pi, x, &s) }); a != 0 {
				t.Errorf("exact n=%d k=%d %s: %v allocs/op, want 0", sh.n, sh.k, obs, a)
			}
		}
	}
	for _, sh := range monteCarloShapes {
		pi, x := shapeCase(sh.k, sh.n, 1, "mid")
		m := Multinomial{Seed: 1}
		if r := m.TestScratch(pi, x, &s); r.Exact {
			t.Fatalf("n=%d k=%d left the Monte-Carlo regime", sh.n, sh.k)
		}
		if a := testing.AllocsPerRun(5, func() { m.TestScratch(pi, x, &s) }); a != 0 {
			t.Errorf("Monte-Carlo n=%d k=%d: %v allocs/op, want 0", sh.n, sh.k, a)
		}
	}
}

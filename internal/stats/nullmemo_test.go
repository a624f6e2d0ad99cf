package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/qcache"
)

// forceMC selects a Monte-Carlo run regardless of problem size.
const forceMCLimit = 1

// TestNullMemoBitwiseIdentical: for many random (π, observation) pairs,
// a memoized Multinomial returns exactly what a memo-free one returns —
// on the miss that fills the memo AND on every hit after it, including
// hits probed with different observations under the same π and n.
func TestNullMemoBitwiseIdentical(t *testing.T) {
	cache := qcache.NewSharded(qcache.Config{Capacity: 256})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(6)
		pi := make([]float64, k)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		n := 3 + rng.Intn(8)
		obsSets := make([][]int, 3)
		for j := range obsSets {
			obs := make([]int, k)
			rem := n
			for i := 0; i < k-1; i++ {
				c := rng.Intn(rem + 1)
				obs[i], rem = c, rem-c
			}
			obs[k-1] = rem
			obsSets[j] = obs
		}
		plain := Multinomial{ExactLimit: forceMCLimit, Samples: 400, Seed: 11}
		memo := plain
		memo.Nulls = cache
		for j, obs := range obsSets {
			want := plain.Test(pi, obs)
			got := memo.Test(pi, obs)
			if got != want {
				t.Fatalf("trial %d obs %d: memo %+v vs fresh %+v", trial, j, got, want)
			}
			if want.Exact {
				t.Fatalf("trial %d: expected a Monte-Carlo run", trial)
			}
		}
	}
	st := cache.Stats()
	if st.Layers[qcache.LayerNull].Hits == 0 || st.Layers[qcache.LayerNull].Misses == 0 {
		t.Fatalf("memo never exercised both paths: %+v", st)
	}
	// Distinct π under one (n, samples, seed) must occupy distinct entries:
	// every distribution's misses happen once, for 2·40 tests per stored
	// null distribution afterwards... at minimum hits must dominate.
	if st.Layers[qcache.LayerNull].Hits < st.Layers[qcache.LayerNull].Misses {
		t.Fatalf("repeated π should mostly hit: %+v", st)
	}
}

// TestNullMemoReferenceEquality pins that a hit serves the stored order
// statistics by reference — no resampling, no copying — by fetching the
// entry through the same key the test uses and comparing slice identity
// across repeated tests.
func TestNullMemoReferenceEquality(t *testing.T) {
	cache := qcache.NewSharded(qcache.Config{Capacity: 16})
	m := Multinomial{ExactLimit: forceMCLimit, Samples: 300, Seed: 5, Nulls: cache}
	pi := []float64{0.5, 0.3, 0.2}
	obs := []int{4, 2, 1}
	n := 7
	first := m.Test(pi, obs)

	p := normalizeProbs(pi, len(obs))
	key := nullKey(p, n, m.Samples, m.Seed)
	v, ok := cache.GetLayer(key, qcache.LayerNull)
	if !ok {
		t.Fatal("null distribution not memoized under the expected key")
	}
	nd := v.(*nullDist)
	if len(nd.lps) != m.Samples {
		t.Fatalf("stored %d order statistics, want %d", len(nd.lps), m.Samples)
	}
	if !nd.matches(p) {
		t.Fatal("stored π does not verify against the normalized input")
	}

	// A different observation under the same π and total hits the same
	// entry — same backing array, untouched.
	second := m.Test(pi, []int{1, 2, 4})
	v2, _ := cache.GetLayer(key, qcache.LayerNull)
	if &v2.(*nullDist).lps[0] != &nd.lps[0] {
		t.Fatal("hit replaced the stored order statistics — expected reference reuse")
	}
	if plain := (Multinomial{ExactLimit: forceMCLimit, Samples: 300, Seed: 5}); plain.Test(pi, []int{1, 2, 4}) != second {
		t.Fatalf("memo hit diverged from fresh sampling")
	}
	if first.Exact || second.Exact {
		t.Fatal("expected Monte-Carlo results")
	}
}

// TestNullMemoKeySensitivity: changing n, Samples, Seed, or any bit of π
// must reach a different entry (or verify-miss), never a stale p-value.
func TestNullMemoKeySensitivity(t *testing.T) {
	cache := qcache.NewSharded(qcache.Config{Capacity: 64})
	base := Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3, Nulls: cache}
	pi := []float64{0.6, 0.25, 0.15}
	obs := []int{3, 3, 1}
	if got, want := base.Test(pi, obs), (Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3}).Test(pi, obs); got != want {
		t.Fatalf("base: %+v vs %+v", got, want)
	}
	variants := []Multinomial{
		{ExactLimit: forceMCLimit, Samples: 500, Seed: 3, Nulls: cache},
		{ExactLimit: forceMCLimit, Samples: 200, Seed: 9, Nulls: cache},
	}
	for i, m := range variants {
		plain := m
		plain.Nulls = nil
		if got, want := m.Test(pi, obs), plain.Test(pi, obs); got != want {
			t.Fatalf("variant %d: %+v vs %+v", i, got, want)
		}
	}
	// Perturbed π (one ulp) and a different total both re-sample.
	pi2 := []float64{0.6, 0.25, math.Nextafter(0.15, 1)}
	if got, want := base.Test(pi2, obs), (Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3}).Test(pi2, obs); got != want {
		t.Fatalf("perturbed π: %+v vs %+v", got, want)
	}
	obs2 := []int{3, 3, 2}
	if got, want := base.Test(pi, obs2), (Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3}).Test(pi, obs2); got != want {
		t.Fatalf("different n: %+v vs %+v", got, want)
	}
}

// TestNullMemoCollisionRecovers: a poisoned entry under the right key but
// the wrong π (what a 64-bit hash collision would leave) is detected by
// the bitwise verification and recomputed, not served.
func TestNullMemoCollisionRecovers(t *testing.T) {
	cache := qcache.NewSharded(qcache.Config{Capacity: 16})
	m := Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3, Nulls: cache}
	pi := []float64{0.7, 0.2, 0.1}
	obs := []int{2, 2, 2}
	p := normalizeProbs(pi, len(obs))
	key := nullKey(p, 6, m.Samples, m.Seed)
	// Poison: a different π whose (sorted) fake statistics would yield an
	// obviously wrong p-value if trusted.
	cache.PutSized(key, &nullDist{p: []float64{1, 0, 0}, lps: make([]float64, 200)}, qcache.LayerNull, 0)
	want := (Multinomial{ExactLimit: forceMCLimit, Samples: 200, Seed: 3}).Test(pi, obs)
	if got := m.Test(pi, obs); got != want {
		t.Fatalf("collision entry served: %+v vs %+v", got, want)
	}
	// The recomputation overwrote the poisoned entry with the real one.
	v, _ := cache.GetLayer(key, qcache.LayerNull)
	if !v.(*nullDist).matches(p) {
		t.Fatal("poisoned entry not overwritten after detection")
	}
}

// TestNullMemoExactPathUntouched: exact enumeration ignores the memo —
// its float accumulation is order-dependent, so there is nothing legal to
// reuse — and stores nothing.
func TestNullMemoExactPathUntouched(t *testing.T) {
	cache := qcache.NewSharded(qcache.Config{Capacity: 16})
	m := Multinomial{Samples: 200, Seed: 3, Nulls: cache}
	res := m.Test([]float64{0.5, 0.5}, []int{3, 2})
	if !res.Exact {
		t.Fatal("expected the exact path")
	}
	if st := cache.Stats(); st.Size != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("exact path touched the memo: %+v", st)
	}
}

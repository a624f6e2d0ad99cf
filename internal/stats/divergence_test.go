package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKLIdenticalNearZero(t *testing.T) {
	p := []float64{3, 1, 4}
	if d := KLDivergence(p, p); d > 1e-6 {
		t.Fatalf("KL(p,p) = %v, want ~0", d)
	}
}

func TestKLDifferentPositive(t *testing.T) {
	d := KLDivergence([]float64{10, 0}, []float64{0, 10})
	if d <= 1 {
		t.Fatalf("KL of disjoint distributions = %v, want large", d)
	}
}

func TestKLHandlesZeroVectors(t *testing.T) {
	if d := KLDivergence(nil, nil); d != 0 {
		t.Fatalf("KL(nil,nil) = %v", d)
	}
	if d := KLDivergence([]float64{1}, nil); math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("KL with empty q = %v", d)
	}
}

// Property: smoothed KL is non-negative and finite.
func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		p := make([]float64, len(a))
		for i, v := range a {
			p[i] = float64(v)
		}
		q := make([]float64, len(b))
		for i, v := range b {
			q[i] = float64(v)
		}
		d := KLDivergence(p, q)
		return d >= 0 && !math.IsInf(d, 0) && !math.IsNaN(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEMDOrderedShift(t *testing.T) {
	// All mass moves one bin: EMD = 1.
	if d := EMDOrdered([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("EMD = %v, want 1", d)
	}
	// Two bins away: EMD = 2.
	if d := EMDOrdered([]float64{1, 0, 0}, []float64{0, 0, 1}); math.Abs(d-2) > 1e-12 {
		t.Fatalf("EMD = %v, want 2", d)
	}
}

func TestEMDOrderedIdentical(t *testing.T) {
	if d := EMDOrdered([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Fatalf("EMD identical = %v", d)
	}
}

func TestEMDUnequalLengths(t *testing.T) {
	if d := EMDOrdered([]float64{1}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("EMD padded = %v, want 1", d)
	}
}

func TestTotalVariation(t *testing.T) {
	if d := TotalVariation([]float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("TV disjoint = %v, want 1", d)
	}
	if d := TotalVariation([]float64{1, 1}, []float64{1, 1}); d != 0 {
		t.Fatalf("TV identical = %v", d)
	}
	if d := TotalVariation([]float64{3, 1}, []float64{1, 3}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("TV = %v, want 0.5", d)
	}
}

// Property: TV is symmetric and within [0, 1].
func TestTVBoundsProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		p := make([]float64, len(a))
		for i, v := range a {
			p[i] = float64(v)
		}
		q := make([]float64, len(b))
		for i, v := range b {
			q[i] = float64(v)
		}
		d1 := TotalVariation(p, q)
		d2 := TotalVariation(q, p)
		return d1 >= 0 && d1 <= 1+1e-12 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareKnownCritical(t *testing.T) {
	// χ²(1) critical value at α=0.05 is 3.841; survival there ≈ 0.05.
	got := chiSquareSurvival(3.841, 1)
	if math.Abs(got-0.05) > 0.001 {
		t.Fatalf("χ² survival(3.841, 1) = %v, want ≈0.05", got)
	}
	// χ²(5) critical value at α=0.05 is 11.070.
	got = chiSquareSurvival(11.070, 5)
	if math.Abs(got-0.05) > 0.001 {
		t.Fatalf("χ² survival(11.070, 5) = %v, want ≈0.05", got)
	}
}

func TestChiSquareGoodnessOfFit(t *testing.T) {
	// Perfectly proportional observation: statistic 0, p = 1.
	if p := chiSquare([]float64{0.5, 0.5}, []int{50, 50}); math.Abs(p-1) > 1e-9 {
		t.Fatalf("balanced χ² p = %v, want 1", p)
	}
	// Heavily skewed observation: tiny p.
	if p := chiSquare([]float64{0.5, 0.5}, []int{100, 0}); p > 1e-6 {
		t.Fatalf("skewed χ² p = %v, want ~0", p)
	}
	// Observation in zero-probability category: p = 0.
	if p := chiSquare([]float64{1, 0}, []int{5, 1}); p != 0 {
		t.Fatalf("impossible χ² p = %v, want 0", p)
	}
	// Empty observation: p = 1.
	if p := chiSquare([]float64{1, 1}, []int{0, 0}); p != 1 {
		t.Fatalf("empty χ² p = %v, want 1", p)
	}
}

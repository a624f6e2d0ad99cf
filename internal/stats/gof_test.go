package stats

import "math"

// Helpers only tests use: Pearson's χ² goodness-of-fit test, kept as the
// ready statistic for checking the samplers against exact values, and the
// uncached multinomial log-probability that brute-force tests enumerate.

// chiSquare performs Pearson's χ² goodness-of-fit test of observation x
// against expected proportions pi, returning the p-value. Categories with
// zero expectation and zero observation are dropped; a positive
// observation in a zero-expectation category yields p = 0.
func chiSquare(pi []float64, x []int) float64 {
	n := 0
	for _, xi := range x {
		n += xi
	}
	if n == 0 {
		return 1
	}
	p := normalizeProbs(pi, len(x))
	stat := 0.0
	df := -1 // k−1 degrees of freedom accumulated per retained category
	for i, xi := range x {
		e := float64(n) * p[i]
		if e == 0 {
			if xi > 0 {
				return 0
			}
			continue
		}
		d := float64(xi) - e
		stat += d * d / e
		df++
	}
	if df <= 0 {
		return 1
	}
	return chiSquareSurvival(stat, float64(df))
}

// chiSquareSurvival returns P(X ≥ stat) for X ~ χ²(df): the regularized
// upper incomplete gamma Q(df/2, stat/2).
func chiSquareSurvival(stat, df float64) float64 {
	if stat <= 0 {
		return 1
	}
	return upperIncompleteGammaReg(df/2, stat/2)
}

// upperIncompleteGammaReg computes Q(a, x) = Γ(a, x)/Γ(a) via the series
// for x < a+1 and the continued fraction otherwise (Numerical Recipes
// style, stdlib-only).
func upperIncompleteGammaReg(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - lowerSeries(a, x)
	}
	return upperContinuedFraction(a, x)
}

// lowerSeries computes P(a, x) by series expansion.
func lowerSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// upperContinuedFraction computes Q(a, x) by Lentz's continued fraction.
func upperContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// logMultinomialProb returns ln Pr(X = x) for X ~ Mult(n, p): the uncached
// form of logMultinomialProbCached.
func logMultinomialProb(p []float64, x []int, n int) float64 {
	lp := lgammaInt(n + 1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		t := termLog(pIndex(p, i), xi)
		if math.IsInf(t, -1) {
			return math.Inf(-1)
		}
		lp += t
	}
	return lp
}

// termLog returns ln(p^c / c!) with the 0^0 = 1 convention.
func termLog(p float64, c int) float64 {
	if c == 0 {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return float64(c)*math.Log(p) - lgammaInt(c+1)
}

func pIndex(p []float64, i int) float64 {
	if i >= len(p) {
		return 0
	}
	return p[i]
}

// normalizeProbs is normalizeProbsInto into a fresh vector of length k.
func normalizeProbs(pi []float64, k int) []float64 {
	return normalizeProbsInto(make([]float64, k), pi)
}

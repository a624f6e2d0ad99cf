package stats

import "math"

// The paper (Section 3.2) discusses and rejects several distribution
// comparison measures before settling on the multinomial test. Two of them
// are implemented here as scoring baselines for the Section 4.2 metrics
// comparison:
//
//   - KL divergence "cannot be used" unsmoothed because the query
//     distribution is full of zeros; we add-ε smooth it to make it
//     runnable, which is the standard workaround.
//   - EMD "requires the definition of distance between values, which is
//     not defined for Inst"; for cardinality histograms the natural unit
//     ground distance applies, and for instance histograms we substitute
//     total variation (EMD under the discrete 0/1 metric).
//
// The χ² and z tests "require either a Gaussian distribution or a minimum
// size of the sample"; the paper rejects them, so neither is a baseline.
// The package's tests keep a χ² goodness-of-fit helper for checking the
// samplers.

// KLDivergence returns D(P‖Q) = Σ p_i·ln(p_i/q_i) between two count
// vectors, after add-ε smoothing (ε = 1e-9 of each distribution's mass)
// and normalization. Returns 0 for empty inputs.
func KLDivergence(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if n == 0 {
		return 0
	}
	const eps = 1e-9
	ps := smooth(p, n, eps)
	qs := smooth(q, n, eps)
	d := 0.0
	for i := 0; i < n; i++ {
		d += ps[i] * math.Log(ps[i]/qs[i])
	}
	if d < 0 {
		d = 0 // numerical guard; KL is non-negative
	}
	return d
}

// smooth normalizes counts to a probability vector of length n with add-ε
// smoothing so every entry is strictly positive.
func smooth(counts []float64, n int, eps float64) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		c := eps
		if i < len(counts) && counts[i] > 0 {
			c += counts[i]
		}
		out[i] = c
		sum += c
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// EMDOrdered returns the Earth Mover's Distance between two count vectors
// interpreted as histograms over the ordered domain 0..n-1 with unit
// spacing: Σ_i |CDF_P(i) − CDF_Q(i)| after normalization.
func EMDOrdered(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if n == 0 {
		return 0
	}
	pn := Normalize(pad(p, n))
	qn := Normalize(pad(q, n))
	d, cp, cq := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		cp += pn[i]
		cq += qn[i]
		d += math.Abs(cp - cq)
	}
	return d
}

// TotalVariation returns ½·Σ|p_i − q_i| after normalization — the EMD
// under the discrete metric, used for unordered instance distributions.
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	if n == 0 {
		return 0
	}
	pn := Normalize(pad(p, n))
	qn := Normalize(pad(q, n))
	d := 0.0
	for i := 0; i < n; i++ {
		d += math.Abs(pn[i] - qn[i])
	}
	return d / 2
}

func pad(v []float64, n int) []float64 {
	if len(v) >= n {
		return v
	}
	out := make([]float64, n)
	copy(out, v)
	return out
}

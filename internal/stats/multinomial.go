// Package stats implements the statistical machinery of Section 3.2: the
// exact multinomial goodness-of-fit test (with Monte-Carlo approximation
// for large samples), the divergence baselines the paper compares against
// (Kullback–Leibler, Earth Mover's Distance, χ², z-test), and the rank
// distance used in the metrics comparison of Section 4.2.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// DefaultAlpha is the paper's significance level: a characteristic is
// notable when the test rejects equality with p ≤ 0.05.
const DefaultAlpha = 0.05

// Multinomial runs the exact multinomial test of Section 3.2.
//
// Given a multinomial distribution π (the normalized context distribution)
// and an observation x (the query counts, N = Σx), the significance
// probability is
//
//	Pr_s(X = x) = Σ_{y : Pr(y) ≤ Pr(x)} Pr(y)
//
// over all outcomes y with the same total N — the probability of drawing
// an outcome at most as likely as x. Small problems are enumerated
// exactly; larger ones fall back to Monte-Carlo sampling (as the paper's
// footnote prescribes), which stops once the answer is clear (see
// monteCarlo).
type Multinomial struct {
	// Alpha is the rejection threshold. Default DefaultAlpha.
	Alpha float64
	// ExactLimit bounds the number of outcome compositions C(n+k−1, k−1)
	// of a test summed exactly; beyond it Monte-Carlo is used. Default
	// 200000. It counts compositions, not cost: the enumeration skips or
	// sums in closed form every subtree that lies wholly on one side of
	// the observation, so only the outcomes near its probability are
	// visited one by one.
	ExactLimit int
	// Samples caps the Monte-Carlo sample count. Default 20000. A test
	// stops earlier once seqHits samples are at most as likely as the
	// observation, so only one with P below about seqHits/Samples draws
	// all of them.
	Samples int
	// Seed makes Monte-Carlo runs deterministic.
	Seed int64
}

// Result reports a multinomial test outcome.
type Result struct {
	// P is the significance probability Pr_s.
	P float64
	// Exact reports whether exact enumeration (vs Monte-Carlo) was used.
	Exact bool
	// LogProbX is ln Pr(X = x) under π, -Inf when x is impossible.
	LogProbX float64
}

func (m Multinomial) withDefaults() Multinomial {
	if m.Alpha == 0 {
		m.Alpha = DefaultAlpha
	}
	// Non-positive budgets select the defaults: a negative Samples would
	// otherwise run zero Monte-Carlo iterations and divide by zero in the
	// +1-corrected estimate.
	if m.ExactLimit <= 0 {
		m.ExactLimit = 200000
	}
	if m.Samples <= 0 {
		m.Samples = 20000
	}
	return m
}

// logProbTolerance treats outcomes whose log-probabilities differ by less
// than this as equally likely, protecting the ≤ comparison from float
// rounding.
const logProbTolerance = 1e-9

// Test computes the significance probability of observation x under π.
// π must be non-negative; it is normalized internally. An all-zero x
// yields P = 1 (nothing observed, nothing to reject); a nonzero x under
// an empty or all-zero π is impossible and yields P = 0 like any other
// impossible observation.
func (m Multinomial) Test(pi []float64, x []int) Result {
	return m.TestScratch(pi, x, nil)
}

// Scratch holds the reusable buffers of one TestScratch caller — the
// normalized probability vector, its per-category logs, and the
// enumeration and sampling state. The zero value is ready; buffers grow to
// the largest test seen and are reused across calls. A Scratch must not be
// shared between concurrent tests.
type Scratch struct {
	p      []float64
	logp   []float64
	cats   []probLog // exact: the possible categories by descending p,
	logS   []float64 // and the logs of their suffix sums
	cdf    []float64
	counts []int
	guide  []int
	drawn  []uint64      // monteCarlo: one bit per category drawn this sample
	src    rand.Source64 // monteCarlo: re-seeded per test
}

// grow returns buf resized to length k, reallocating only when capacity
// is insufficient. Contents are unspecified; callers overwrite fully.
func grow[T int | float64 | uint64](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k)
	}
	return buf[:k]
}

// TestScratch is Test with caller-owned scratch buffers: a worker testing
// many labels in a row reuses one Scratch and allocates nothing on the
// steady path. s may be nil, which allocates freshly (equivalent to Test).
func (m Multinomial) TestScratch(pi []float64, x []int, s *Scratch) Result {
	m = m.withDefaults()
	if s == nil {
		s = &Scratch{}
	}
	n := 0
	for _, xi := range x {
		n += xi
	}
	if n == 0 {
		return Result{P: 1, Exact: true, LogProbX: 0}
	}
	// Note: len(pi) == 0 with a nonzero observation is NOT the trivial
	// case — every observed category is impossible under an empty
	// distribution, so normalizeProbsInto yields all zeros and the impossible
	// branch below reports P = 0, maximal notability.
	s.p = grow(s.p, len(x))
	p := normalizeProbsInto(s.p, pi)
	// Every later probability term is c·ln(p[i]) − ln(c!): cache the k
	// category logs once so the enumeration/sampling loops run on pure
	// arithmetic. math.Log is deterministic, so reusing its result is
	// bit-identical to recomputing it per term.
	s.logp = grow(s.logp, len(x))
	logp := s.logp
	for i, pv := range p {
		if pv > 0 {
			logp[i] = math.Log(pv)
		} else {
			logp[i] = math.Inf(-1)
		}
	}

	logX := logMultinomialProbCached(p, logp, x, n)
	if math.IsInf(logX, -1) {
		// x contains a category the context deems impossible: no outcome
		// can be ≤ its probability except other impossible ones, which are
		// never drawn. Pr_s = 0 — maximal notability.
		return Result{P: 0, Exact: true, LogProbX: logX}
	}

	if comps, ok := compositionsUpTo(n, len(x), m.ExactLimit); ok && comps <= m.ExactLimit {
		return Result{P: m.exact(p, logp, logX, n, s), Exact: true, LogProbX: logX}
	}
	return Result{P: m.monteCarlo(p, logp, logX, n, seqHits, s), Exact: false, LogProbX: logX}
}

// exact enumerates the compositions of n over the possible categories,
// accumulating the probability of outcomes at most as likely as logX.
// Probability terms are pure arithmetic over the cached category logs and
// the ln-factorial table, so enumeration spends no time in math.Log/Lgamma.
//
// The categories are walked by descending p, which makes the next category
// of a subtree its likeliest and the last one the rarest; equal p are
// interchangeable, and have equal logs, so the order is that of the values
// alone. Impossible categories are left out: x is 0 on every one of them,
// since logX is finite, and every outcome drawing on them has probability
// 0. Each possible category carries the log TestScratch already took.
func (m Multinomial) exact(p, logp []float64, logX float64, n int, s *Scratch) float64 {
	s.cats = s.cats[:0]
	for i, pv := range p {
		if pv > 0 {
			s.cats = append(s.cats, probLog{pv, logp[i]})
		}
	}
	slices.SortFunc(s.cats, func(a, b probLog) int { return cmp.Compare(b.p, a.p) })
	k := len(s.cats)
	s.logS = grow(s.logS, k)
	e := exactSum{cats: s.cats, logS: s.logS, logN: lgammaInt(n + 1), threshold: logX + logProbTolerance}
	sum := 0.0
	for j := k - 1; j >= 0; j-- {
		sum += e.cats[j].p
		e.logS[j] = math.Log(sum)
	}
	// A subtree is skipped only when its least likely outcome clears the
	// threshold by far more than the rounding of the few-term sums compared,
	// and counted whole only when its likeliest one falls as far below it.
	slack := float64(1e-9 * (1 + math.Abs(e.threshold) + e.logN - float64(float64(n)*e.cats[k-1].logp)))
	e.skipAbove, e.countBelow = e.threshold+slack, e.threshold-slack
	e.walk(0, n, 0)
	if e.total > 1 {
		e.total = 1 // guard against accumulation drift
	}
	return e.total
}

// probLog is one possible category's p and ln p.
type probLog struct{ p, logp float64 }

// exactSum is the state of one exact enumeration over categories of
// descending p; logS[j] is ln Σ_{i≥j} p[i].
type exactSum struct {
	cats                                          []probLog
	logS                                          []float64
	logN, threshold, skipAbove, countBelow, total float64
}

// walk adds the outcomes that place remaining draws on categories cat
// onward, given the log-probability logAcc of the counts chosen so far.
func (e *exactSum) walk(cat, remaining int, logAcc float64) {
	last, pc := len(e.cats)-1, e.cats[cat]
	if cat == last {
		e.leaf(logAcc + termLogCached(pc.p, pc.logp, remaining))
		return
	}
	for c := 0; c <= remaining; c++ {
		lt := termLogCached(pc.p, pc.logp, c)
		left := remaining - c
		if left == 0 {
			// Every deeper category takes 0 draws and contributes an exact
			// +0 term: this is the leaf.
			e.leaf(logAcc + lt)
			continue
		}
		base, lf := logAcc+lt+e.logN, lgammaInt(left+1)
		// The subtree's outcomes sum Π p^c/c! over its categories to
		// S^left/left! (the multinomial theorem): its mass is exp(base+tail).
		tail := float64(float64(left)*e.logS[cat+1]) - lf
		switch {
		case base+float64(float64(left)*e.cats[last].logp)-lf > e.skipAbove:
			// All of left on the rarest category is the subtree's least
			// likely outcome; above the threshold, none of it counts.
		case base+min(float64(left)*e.cats[cat+1].logp, tail) <= e.countBelow:
			// No outcome is likelier than all of left on the likeliest
			// category with every ln c! dropped, nor than the subtree's
			// whole mass: below the threshold, all of it counts.
			e.total += math.Exp(base + tail)
		default:
			e.walk(cat+1, left, logAcc+lt)
		}
	}
}

func (e *exactSum) leaf(lp float64) {
	if lp += e.logN; lp <= e.threshold {
		e.total += math.Exp(lp)
	}
}

// guideBuckets sizes the Monte-Carlo sampler's guide table: enough buckets
// that a draw's bucket usually holds one or two categories, capped so the
// per-test build cost stays trivial next to Samples×n draws.
func guideBuckets(k int) int {
	g := 4 * k
	if g < 16 {
		g = 16
	}
	if g > 8192 {
		g = 8192
	}
	return g
}

// seqHits is h of the sequential Monte-Carlo p-value (Besag & Clifford,
// Biometrika 1991): sampling stops at the h-th outcome at most as likely
// as the observation. The estimate's relative error is then about 1/√h.
// A test rejects at α only with fewer than h hits in its first h/α
// samples: at a true P of 0.07 and α = 0.05 that happens about 0.02 % of
// the time (about 5 % at h = 20), where the full-budget test never
// rejects.
const seqHits = 100

// monteCarlo estimates Pr_s by sampling outcomes from Mult(n, p), drawing
// at most m.Samples of them. Once h samples are at most as likely as the
// observation it stops and returns h/l, l being the samples drawn so far;
// a test with fewer than h such samples at the cap returns the standard
// +1-corrected (hits+1)/(Samples+1), which never claims impossibility.
// Both are valid p-values. A test near α stops after about h/α samples;
// only one with P below about h/Samples draws the whole budget and keeps
// its full precision. The caller passes h = seqHits; an h above Samples
// disables the stop.
//
// Each draw inverts the CDF through a guide table: bucket b pre-resolves
// the short index range the answer lies in, collapsing the per-draw search
// to an O(1) expected scan. The scan answers exactly the same "first index
// whose cumulative value exceeds u" question as a binary search of the
// whole CDF, so the sampled category sequence — and therefore the estimate
// — is bit-identical to that search's.
func (m Multinomial) monteCarlo(p, logp []float64, logX float64, n, h int, s *Scratch) float64 {
	threshold := logX + logProbTolerance
	// rand.NewSource documents that its result implements Source64; drawing
	// from it directly yields rand.Rand.Float64's values without the wrappers.
	// Seed resets it to exactly the state NewSource(m.Seed) starts in.
	if s.src == nil {
		s.src = rand.NewSource(m.Seed).(rand.Source64)
	} else {
		s.src.Seed(m.Seed)
	}
	src := s.src
	s.cdf = grow(s.cdf, len(p))
	cdf := s.cdf
	acc := 0.0
	for i, pi := range p {
		acc += pi
		cdf[i] = acc
	}
	nb := guideBuckets(len(p))
	step := acc / float64(nb)
	// guide[b+1] is the first index whose cumulative value exceeds bucket
	// boundary b·step, filled by one monotone sweep. A draw's bucket is
	// computed with rounding, so its search runs over the bucket widened by
	// one on each side: guide[b] to guide[b+3], the table being padded with
	// one copy of its first entry and two of its last.
	s.guide = grow(s.guide, nb+4)
	guide := s.guide
	idx := 0
	for i := range guide {
		v := float64(min(max(i-1, 0), nb)) * step
		for idx < len(cdf)-1 && cdf[idx] <= v {
			idx++
		}
		guide[i] = idx
	}
	hits := 0
	s.counts = grow(s.counts, len(p))
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	s.drawn = grow(s.drawn, (len(p)+63)/64)
	drawn := s.drawn
	for i := range drawn {
		drawn[i] = 0
	}
	logN, perStep := lgammaInt(n+1), 1/step
	for l := 1; l <= m.Samples; l++ {
		for j := 0; j < n; j++ {
			f := 1.0
			for f == 1 { // rand.Rand.Float64 redraws a quotient that rounds up to 1
				f = float64(src.Uint64()&(1<<63-1)) / (1 << 63)
			}
			u := f * acc
			// Buckets are narrower than the average category, so the first
			// cumulative value above u is a step or two into the range.
			b := int(u * perStep)
			c := guide[b]
			for last := guide[b+3]; c < last && cdf[c] <= u; c++ {
			}
			counts[c]++
			drawn[c>>6] |= 1 << (c & 63)
		}
		// The sample's log-probability sums category terms in ascending
		// index order, exactly as a full scan of counts would: the set bits
		// of drawn, low word and low bit first. An impossible category's
		// term is −Inf and so is the sum, whatever follows; every drawn
		// category is visited and cleared either way.
		lp := logN
		for w, word := range drawn {
			for ; word != 0; word &= word - 1 {
				c := w<<6 | bits.TrailingZeros64(word)
				lp += float64(float64(counts[c])*logp[c]) - lgammaInt(counts[c]+1)
				counts[c] = 0
			}
			drawn[w] = 0
		}
		if lp <= threshold {
			if hits++; hits == h {
				return float64(h) / float64(l)
			}
		}
	}
	return float64(hits+1) / float64(m.Samples+1)
}

// logMultinomialProbCached returns ln Pr(X = x) for X ~ Mult(n, p), with
// logp the cached element-wise ln(p).
func logMultinomialProbCached(p, logp []float64, x []int, n int) float64 {
	lp := lgammaInt(n + 1)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		if i >= len(p) {
			return math.Inf(-1) // observed category beyond π: impossible
		}
		t := termLogCached(p[i], logp[i], xi)
		if math.IsInf(t, -1) {
			return math.Inf(-1)
		}
		lp += t
	}
	return lp
}

// termLogCached returns ln(p^c / c!) with the 0^0 = 1 convention, with lp
// the cached ln(p).
func termLogCached(p, lp float64, c int) float64 {
	if c == 0 {
		return 0
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return float64(float64(c)*lp) - lgammaInt(c+1)
}

// lnFactTabSize bounds the precomputed ln Γ table; larger arguments (a
// 4096-observation count in one category) fall back to math.Lgamma.
const lnFactTabSize = 4096

// lnFactTab[i] = ln Γ(i), filled by the same math.Lgamma the fallback
// uses, so table hits are bit-identical to direct evaluation.
var lnFactTab = func() [lnFactTabSize]float64 {
	var t [lnFactTabSize]float64
	for i := 1; i < lnFactTabSize; i++ {
		t[i], _ = math.Lgamma(float64(i))
	}
	return t
}()

// lgammaInt is ln(Γ(n)) for positive integer n, i.e. ln((n-1)!).
func lgammaInt(n int) float64 {
	if n > 0 && n < lnFactTabSize {
		return lnFactTab[n]
	}
	v, _ := math.Lgamma(float64(n))
	return v
}

// normalizeProbsInto rescales pi to sum to 1 into out, padded or truncated
// to out's length k: categories of pi beyond k are dropped (their mass is
// renormalized away), and missing trailing categories become
// zero-probability. The length of the observation vector x is
// authoritative — see the pinning tests. Every entry of out is overwritten.
func normalizeProbsInto(out, pi []float64) []float64 {
	sum := 0.0
	for i := range out {
		out[i] = 0
		if i < len(pi) && pi[i] > 0 {
			out[i] = pi[i]
			sum += pi[i]
		}
	}
	if sum <= 0 {
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Normalize converts a count vector into a probability vector. An all-zero
// input yields an all-zero output.
func Normalize(counts []float64) []float64 {
	out := make([]float64, len(counts))
	sum := 0.0
	for _, c := range counts {
		if c > 0 {
			sum += c
		}
	}
	if sum <= 0 {
		return out
	}
	for i, c := range counts {
		if c > 0 {
			out[i] = c / sum
		}
	}
	return out
}

// NormalizeInts is Normalize for integer counts.
func NormalizeInts(counts []int) []float64 {
	f := make([]float64, len(counts))
	for i, c := range counts {
		f[i] = float64(c)
	}
	return Normalize(f)
}

// compositionsUpTo returns C(n+k-1, k-1) — the number of ways to split n
// observations over k categories — capped at limit. ok is false when the
// count exceeds the cap during computation or would overflow int; the
// count returned alongside is then limit + 1, a sentinel strictly above
// every admissible limit, so both return values consistently mean "too
// many to enumerate".
func compositionsUpTo(n, k, limit int) (int, bool) {
	// Multiplicative binomial evaluation with early exit.
	if k <= 1 {
		return 1, true
	}
	r := k - 1
	nn := n + k - 1
	if r > nn-r {
		r = nn - r
	}
	res := 1.0
	for i := 1; i <= r; i++ {
		res = res * float64(nn-r+i) / float64(i)
		if res > float64(limit)*2 {
			return limit + 1, false
		}
	}
	// float64(math.MaxInt) rounds up to 2^63, which does not fit back into
	// int — anything at or past it must take the sentinel path rather than
	// wrap negative in the conversion.
	if res+0.5 >= float64(math.MaxInt) {
		return limit + 1, false
	}
	return int(res + 0.5), true
}

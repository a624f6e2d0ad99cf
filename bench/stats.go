package main

import (
	"math"
	"sort"
	"time"
)

// listedPercentiles are the tail percentiles the report may quote, lowest
// first.
var listedPercentiles = []float64{0.75, 0.90, 0.95, 0.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// quoted: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// supportedPercentile returns the highest listed percentile that n samples
// support — at least minBeyond of them lie beyond it — or 0.5 when none
// does and only the median can be quoted.
func supportedPercentile(n int) float64 {
	best := 0.5
	for _, p := range listedPercentiles {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// an empty sample (the caller reports the sample count beside it).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(values, n=4), which is what the
// acceptance check of the benchmark contract uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// latencies is one op kind's sample: durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

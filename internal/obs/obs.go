// Package obs is the serving stack's dependency-free metrics subsystem:
// lock-cheap counters, scrape-time counter and gauge funcs, fixed-bucket
// latency histograms whose hot path is a pair of atomic adds, an
// allocation-free structured access-log ring buffer, and a registry
// whose series render both as Prometheus text (GET /metrics) and as
// JSON (GET /statsz).
//
// The design splits cost asymmetrically. Instrumented code — the PPR
// solve, the comparison stage, every HTTP request — holds direct
// pointers to its Counter/Histogram, obtained once at construction, so
// recording is a handful of atomic adds: no map lookups, no
// interface dispatch, no allocation, no locks. All bookkeeping (names,
// labels, HELP text, bucket boundaries rendered as strings) happens at
// registration or at scrape time, where a mutex and a few allocations
// are irrelevant.
//
// Histograms use fixed exponential buckets (see DefaultLatencyBounds)
// shared by every latency metric, so a scraper can sum any two series
// bucket by bucket — across stages, across scrapes, across processes —
// and quantiles come from linear interpolation within the bucket holding
// the target rank: exact at bucket boundaries, bounded by the bucket's
// width everywhere else.
//
// Everything here is safe for concurrent use. Observe/Add/Inc may race
// freely with Snapshot and with the exposition writer; snapshots are
// internally consistent per counter (each bucket is read atomically)
// though not across counters, which is the standard Prometheus
// contract.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit metric. The zero value
// is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be ≥ 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBounds are the shared histogram bucket upper bounds, in
// seconds: exponential ×2 from 10µs to ~84s, 24 finite buckets. Wide
// enough that a WAL fsync (~ms), a warm cache hit (~50µs), and a cold
// 90ms solve all land mid-range with ≤2× relative quantile error, and
// identical across every histogram so series sum bucket by bucket.
var DefaultLatencyBounds = func() []float64 {
	b := make([]float64, 24)
	v := 10e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket distribution of durations. Observe is two
// atomic adds plus a branch-free-ish bucket search over a small sorted
// slice — no locks, no allocation. Construct with NewHistogram (the
// zero value is not usable: buckets must be sized).
type Histogram struct {
	bounds  []float64 // upper bounds, seconds, strictly increasing
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds, exact for any realistic uptime
}

// NewHistogram returns a histogram over bounds (nil selects
// DefaultLatencyBounds). One extra +Inf bucket is implicit: values past
// the last bound land there.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. Safe for any concurrency; never
// allocates.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one value already expressed in seconds.
func (h *Histogram) ObserveSeconds(v float64) {
	// Binary search over ≤24 bounds: ~5 comparisons, cheaper to inline
	// than sort.SearchFloat64s' function-value indirection.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * 1e9))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures the histogram's current state. The per-bucket reads
// are individually atomic; a snapshot taken mid-Observe may be one
// observation short in count vs. buckets, which Quantile tolerates
// (quantile ranks derive from the bucket counts themselves).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:   h.bounds,
		Counts:   make([]int64, len(h.buckets)),
		SumNanos: h.sum.Load(),
	}
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive Count from the buckets rather than the count field so the
	// snapshot is self-consistent even when it races an Observe that has
	// bumped one but not the other.
	s.Count = total
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram: bucket counts
// (one per bound plus the +Inf overflow), total count, and the sum of
// observed values in nanoseconds.
type HistSnapshot struct {
	// Bounds aliases the histogram's (immutable) bound slice.
	Bounds []float64
	// Counts has len(Bounds)+1 entries; Counts[len(Bounds)] is +Inf.
	Counts   []int64
	Count    int64
	SumNanos int64
}

// Quantile returns the q-quantile (q in [0, 1]) in seconds, linearly
// interpolated within the bucket holding the target rank: exact when the
// rank lands on a bucket boundary, off by at most the bucket's width
// otherwise. Returns 0 for an empty snapshot. The +Inf bucket reports
// its lower bound (the largest finite bound) — a floor, not an estimate.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if float64(cum+c) >= rank {
			if i == len(s.Bounds) {
				// Overflow bucket: unbounded above, report the floor.
				return lo
			}
			hi := s.Bounds[i]
			// Position of the target rank inside this bucket.
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	// rank == Count and the loop ran out (all mass in trailing zeros —
	// impossible, but stay total): report the largest bound.
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observed value in seconds (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNanos) / 1e9 / float64(s.Count)
}

// Summary condenses a snapshot to the fields a JSON endpoint (the
// "histograms" key of /statsz) or a soak harness wants: count, mean and
// interpolated p50/p95/p99 in milliseconds.
type Summary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summarize computes the Summary of s.
func (s HistSnapshot) Summarize() Summary {
	return Summary{
		Count:  s.Count,
		MeanMS: s.Mean() * 1e3,
		P50MS:  s.Quantile(0.50) * 1e3,
		P95MS:  s.Quantile(0.95) * 1e3,
		P99MS:  s.Quantile(0.99) * 1e3,
	}
}

// Package topk selects the k highest-scored items from a stream without
// sorting the full population.
//
// Context selection (Definition 2) repeatedly needs "the k nodes with the
// highest score" out of up to |V| candidates. A bounded min-heap does this
// in O(n log k) time and O(k) space. Ties are broken by the smaller item ID
// so selections are deterministic regardless of insertion order.
//
// It stands alone, rather than inside ctxsel, because Item is a shared
// vocabulary type: it is notable.ContextItem in the public API, core and
// eval pass rankings of it around, and the benchmark harness under bench/
// imports it directly.
package topk

import (
	"container/heap"
	"sort"
)

// Item is a scored candidate.
type Item struct {
	ID    uint32
	Score float64
}

// less orders items by ascending score, breaking ties by descending ID, so
// the heap root is always the weakest item: lowest score, and among equal
// scores the largest ID (meaning smaller IDs win a tie for the last slot).
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Selector keeps the k best items seen so far.
type Selector struct {
	k     int
	items minHeap
}

// New returns a Selector that retains the k best items. k must be >= 0;
// k == 0 retains nothing.
func New(k int) *Selector {
	if k < 0 {
		k = 0
	}
	return &Selector{k: k, items: make(minHeap, 0, k)}
}

// Offer considers an item for inclusion.
func (s *Selector) Offer(id uint32, score float64) {
	if s.k == 0 {
		return
	}
	it := Item{ID: id, Score: score}
	if len(s.items) < s.k {
		heap.Push(&s.items, it)
		return
	}
	if less(s.items[0], it) {
		s.items[0] = it
		heap.Fix(&s.items, 0)
	}
}

// Len returns the number of retained items (≤ k).
func (s *Selector) Len() int { return len(s.items) }

// Threshold returns the lowest retained score, or -Inf semantics via ok =
// false when fewer than k items have been offered.
func (s *Selector) Threshold() (score float64, ok bool) {
	if len(s.items) < s.k || s.k == 0 {
		return 0, false
	}
	return s.items[0].Score, true
}

// Ranked returns the retained items sorted by descending score (ties by
// ascending ID). The Selector remains usable.
func (s *Selector) Ranked() []Item {
	out := make([]Item, len(s.items))
	copy(out, s.items)
	sort.Slice(out, func(i, j int) bool { return less(out[j], out[i]) })
	return out
}

// minHeap implements heap.Interface ordered by less.
type minHeap []Item

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

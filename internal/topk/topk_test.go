package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicSelection(t *testing.T) {
	s := New(3)
	for i, score := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		s.Offer(uint32(i), score)
	}
	got := s.Ranked()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	wantIDs := []uint32{1, 3, 2} // scores 0.9, 0.7, 0.5
	for i, it := range got {
		if it.ID != wantIDs[i] {
			t.Fatalf("rank %d = id %d, want %d", i, it.ID, wantIDs[i])
		}
	}
}

func TestFewerThanK(t *testing.T) {
	s := New(10)
	s.Offer(1, 0.5)
	s.Offer(2, 0.8)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Threshold(); ok {
		t.Fatal("Threshold should not be ok before k items")
	}
	got := s.Ranked()
	if got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("Ranked = %v", got)
	}
}

func TestZeroK(t *testing.T) {
	s := New(0)
	s.Offer(1, 0.5)
	if s.Len() != 0 {
		t.Fatal("k=0 should retain nothing")
	}
	s = New(-5)
	s.Offer(1, 0.5)
	if s.Len() != 0 {
		t.Fatal("negative k should retain nothing")
	}
}

func TestTieBreakBySmallerID(t *testing.T) {
	s := New(2)
	s.Offer(9, 0.5)
	s.Offer(3, 0.5)
	s.Offer(7, 0.5)
	got := s.Ranked()
	if got[0].ID != 3 || got[1].ID != 7 {
		t.Fatalf("tie break got %v, want [3 7]", got)
	}
}

func TestThreshold(t *testing.T) {
	s := New(2)
	s.Offer(1, 0.9)
	s.Offer(2, 0.4)
	th, ok := s.Threshold()
	if !ok || th != 0.4 {
		t.Fatalf("Threshold = %v/%v, want 0.4/true", th, ok)
	}
	s.Offer(3, 0.6)
	th, _ = s.Threshold()
	if th != 0.6 {
		t.Fatalf("Threshold after displacement = %v, want 0.6", th)
	}
}

// Property: selection matches full sort + truncate for random inputs.
func TestMatchesFullSortProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw%20) + 1
		n := rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(50)) / 10 // force ties
		}
		sel := New(k)
		for id, sc := range scores {
			sel.Offer(uint32(id), sc)
		}
		got := sel.Ranked()

		type pair struct {
			id uint32
			sc float64
		}
		all := make([]pair, n)
		for i, sc := range scores {
			all[i] = pair{uint32(i), sc}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].sc != all[j].sc {
				return all[i].sc > all[j].sc
			}
			return all[i].id < all[j].id
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].id || got[i].Score != want[i].sc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 1<<16)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(100)
		for id, sc := range scores {
			s.Offer(uint32(id), sc)
		}
		if s.Len() != 100 {
			b.Fatal("bad len")
		}
	}
}

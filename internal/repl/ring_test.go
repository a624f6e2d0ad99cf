package repl

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingDeterministic: the same membership always builds the same
// ring, and Order is stable per key — the property retries, hedges, and
// cache affinity all lean on.
func TestRingDeterministic(t *testing.T) {
	names := []string{"primary", "r1", "r2"}
	a := NewRing(names, 0)
	b := NewRing([]string{"r2", "primary", "r1"}, 0) // order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		oa, ob := a.Order(key), b.Order(key)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %q: order depends on constructor order: %v vs %v", key, oa, ob)
		}
		if len(oa) != len(names) {
			t.Fatalf("key %q: order %v does not cover the fleet", key, oa)
		}
		seen := map[string]bool{}
		for _, n := range oa {
			if seen[n] {
				t.Fatalf("key %q: backend %q appears twice in %v", key, n, oa)
			}
			seen[n] = true
		}
	}
}

// TestRingBalance: with virtual nodes, no backend owns a wildly
// disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, 0)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Order(fmt.Sprintf("key-%d", i))[0]]++
	}
	for name, n := range counts {
		// Fair share is 1000; accept a generous 2× band — the test guards
		// against degenerate hashing, not perfect balance.
		if n < keys/8 || n > keys/2 {
			t.Fatalf("backend %s owns %d of %d keys: %v", name, n, keys, counts)
		}
	}
}

// TestRingStabilityUnderMembershipChange: removing (or adding) one of N
// backends moves roughly 1/N of the key space and NOTHING else — keys
// that stay put keep their owner, so replica caches survive fleet
// changes.
func TestRingStabilityUnderMembershipChange(t *testing.T) {
	const keys = 4000
	full := NewRing([]string{"a", "b", "c", "d"}, 0)
	smaller := NewRing([]string{"a", "b", "c"}, 0)

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := full.Order(key)[0], smaller.Order(key)[0]
		if was == "d" {
			// Orphaned keys must land on the survivor that was next in the
			// full ring's walk order — the fallback slot retries already used.
			wantNext := ""
			for _, n := range full.Order(key)[1:] {
				if n != "d" {
					wantNext = n
					break
				}
			}
			if is != wantNext {
				t.Fatalf("key %q: owner d removed, moved to %q, want next-in-walk %q", key, is, wantNext)
			}
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %q → %q although its owner survived", key, was, is)
		}
	}
	// d owned ~1/4 of the space; accept a wide band around it.
	if moved < keys/8 || moved > keys/2 {
		t.Fatalf("%d of %d keys moved on one removal, want ≈ %d", moved, keys, keys/4)
	}

	// Adding a backend is the same property in reverse: only keys the
	// newcomer claims may move.
	grown := NewRing([]string{"a", "b", "c", "d", "e"}, 0)
	movedIn := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := full.Order(key)[0], grown.Order(key)[0]
		if was != is {
			if is != "e" {
				t.Fatalf("key %q moved %q → %q on an add; only moves to the newcomer are allowed", key, was, is)
			}
			movedIn++
		}
	}
	if movedIn < keys/10 || movedIn > keys/3 {
		t.Fatalf("%d of %d keys moved to the newcomer, want ≈ %d", movedIn, keys, keys/5)
	}
}

// TestCanonicalKey: entity/node order does not change the key; every
// cache-forking knob does.
func TestCanonicalKey(t *testing.T) {
	base := CanonicalKey([]string{"Merkel", "Obama"}, []uint32{7, 3}, "contextrw", 10, 0, 0)
	if got := CanonicalKey([]string{"Obama", "Merkel"}, []uint32{3, 7}, "contextrw", 10, 0, 0); got != base {
		t.Fatalf("reordered query changed the key:\n %s\n %s", got, base)
	}
	distinct := []string{
		CanonicalKey([]string{"Merkel"}, []uint32{7, 3}, "contextrw", 10, 0, 0),
		CanonicalKey([]string{"Merkel", "Obama"}, []uint32{3}, "contextrw", 10, 0, 0),
		CanonicalKey([]string{"Merkel", "Obama"}, []uint32{7, 3}, "simrank", 10, 0, 0),
		CanonicalKey([]string{"Merkel", "Obama"}, []uint32{7, 3}, "contextrw", 20, 0, 0),
		CanonicalKey([]string{"Merkel", "Obama"}, []uint32{7, 3}, "contextrw", 10, 500, 0),
		CanonicalKey([]string{"Merkel", "Obama"}, []uint32{7, 3}, "contextrw", 10, 0, 0.9),
	}
	seen := map[string]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Fatalf("variant %d collided: %s", i, k)
		}
		seen[k] = true
	}
}

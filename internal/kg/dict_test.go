package kg

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDictPutAssignsDenseIDs(t *testing.T) {
	d := newDict(4)
	for i, name := range []string{"a", "b", "c"} {
		if id := d.put(name); id != uint32(i) {
			t.Fatalf("put(%q) = %d, want %d", name, id, i)
		}
	}
	if d.len() != 3 {
		t.Fatalf("len = %d, want 3", d.len())
	}
}

func TestDictPutIsIdempotent(t *testing.T) {
	d := newDict(0)
	if first, second := d.put("x"), d.put("x"); first != second {
		t.Fatalf("put twice returned %d then %d", first, second)
	}
	if d.len() != 1 {
		t.Fatalf("len = %d, want 1", d.len())
	}
}

func TestDictInsertionOrderStable(t *testing.T) {
	d := newDict(0)
	for i := 0; i < 100; i++ {
		d.put(fmt.Sprintf("node-%03d", i))
	}
	if d.len() != 100 {
		t.Fatalf("len = %d, want 100", d.len())
	}
	for i := 0; i < 100; i++ {
		if got, want := d.name(uint32(i)), fmt.Sprintf("node-%03d", i); got != want {
			t.Fatalf("name(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestDictLookupMissing(t *testing.T) {
	d := newDict(0)
	d.put("present")
	if got := d.lookup("absent"); got != noID {
		t.Fatalf("lookup(absent) = %d, want noID", got)
	}
	if got := d.lookup("present"); got != 0 {
		t.Fatalf("lookup(present) = %d, want 0", got)
	}
}

func TestDictNamePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("name on an out-of-range id did not panic")
		}
	}()
	newDict(0).name(5)
}

// TestDictRoundTripProperty: for any batch of strings, put then name
// round-trips and duplicates share an ID.
func TestDictRoundTripProperty(t *testing.T) {
	f := func(ss []string) bool {
		d := newDict(len(ss))
		seen := make(map[string]uint32)
		for _, s := range ss {
			id := d.put(s)
			if prev, ok := seen[s]; ok && prev != id {
				return false
			}
			seen[s] = id
			if d.name(id) != s {
				return false
			}
		}
		return d.len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package dist

import (
	"testing"
)

// TestInstancesScratchMatchesFresh: recycling one Scratch across labels
// must be invisible in the built distributions, and the returned slices
// must be fresh (not aliases of scratch state) since Characteristic
// records retain them.
func TestInstancesScratchMatchesFresh(t *testing.T) {
	g, query, context := smallWorld(t)
	var s Scratch
	for _, name := range []string{"studied", "created", "studied"} {
		l := label(t, g, name)
		fresh := InstancesScratch(g, l, query, context, nil)
		reused := InstancesScratch(g, l, query, context, &s)
		if len(fresh.Values) != len(reused.Values) {
			t.Fatalf("%s: %d values vs %d", name, len(fresh.Values), len(reused.Values))
		}
		for i := range fresh.Values {
			if fresh.Values[i] != reused.Values[i] {
				t.Fatalf("%s: value %d differs", name, i)
			}
		}
		for i := range fresh.Query {
			if fresh.Query[i] != reused.Query[i] || fresh.Context[i] != reused.Context[i] {
				t.Fatalf("%s: counts differ at %d", name, i)
			}
		}
	}
}

// TestTestVectorsAlwaysAligned pins the invariant the multinomial test
// relies on: under both policies π and the observation share one length,
// because Query and Context are built over one category space and the
// pooled rewrite drops or keeps categories in lockstep.
func TestTestVectorsAlwaysAligned(t *testing.T) {
	g, query, context := smallWorld(t)
	for _, name := range []string{"studied", "created"} {
		d := InstancesScratch(g, label(t, g, name), query, context, nil)
		if len(d.Query) != len(d.Context) {
			t.Fatalf("%s: distribution slices disagree: %d vs %d",
				name, len(d.Query), len(d.Context))
		}
		for _, policy := range []UnseenPolicy{UnseenStrict, UnseenPooled} {
			pi, obs := d.TestVectorsScratch(policy, nil)
			if len(pi) != len(obs) {
				t.Fatalf("%s policy %d: π length %d != observation length %d",
					name, policy, len(pi), len(obs))
			}
			var sscratch Scratch
			pi2, obs2 := d.TestVectorsScratch(policy, &sscratch)
			if len(pi2) != len(pi) {
				t.Fatalf("%s policy %d: scratch π length %d vs %d",
					name, policy, len(pi2), len(pi))
			}
			for i := range pi {
				if pi[i] != pi2[i] || obs[i] != obs2[i] {
					t.Fatalf("%s policy %d: scratch vectors differ at %d", name, policy, i)
				}
			}
		}
	}
}

// TestTestVectorsScratchReuse: consecutive calls on one Scratch reuse the
// π buffer — the previous vector is overwritten, which is exactly the
// contract (valid until the next call with the same Scratch).
func TestTestVectorsScratchReuse(t *testing.T) {
	g, query, context := smallWorld(t)
	var s Scratch
	d := InstancesScratch(g, label(t, g, "studied"), query, context, nil)
	pi1, _ := d.TestVectorsScratch(UnseenStrict, &s)
	pi2, _ := d.TestVectorsScratch(UnseenStrict, &s)
	if &pi1[0] != &pi2[0] {
		t.Fatal("scratch π buffer was not reused across calls")
	}
}

func TestContextFloatsInto(t *testing.T) {
	buf := make([]float64, 0, 8)
	out := ContextFloatsInto(buf, []int{3, 0, 2})
	if len(out) != 3 || out[0] != 3 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("ContextFloatsInto = %v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("ContextFloatsInto did not reuse the provided buffer")
	}
	reused := ContextFloatsInto(out[:0], []int{7})
	if reused[0] != 7 || &reused[0] != &out[0] {
		t.Fatal("second ContextFloatsInto did not reuse the buffer")
	}
}

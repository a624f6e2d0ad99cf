package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/qcache"
)

// TestTestLayerWarmHitIsPrivate: a warm hit is the caller's to mutate.
// Appending to any distribution slice of one record reaches no other
// slice of the copy, and neither appends nor element writes reach the
// stored report: the next hit still equals the cold run.
func TestTestLayerWarmHitIsPrivate(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	opt := Options{Seed: 7, Cache: &Cache{Store: qcache.NewSharded(qcache.Config{Capacity: 64})}}
	cold := compareSets(t, g, query, cset, opt)
	hit := compareSets(t, g, query, cset, opt)
	if !reflect.DeepEqual(hit, cold) {
		t.Fatal("warm hit differs from the cold run")
	}
	for i := range hit {
		c := &hit[i]
		// Appends that a shared backing array would let land in a
		// neighbour's first element; the slice headers are left as they were.
		_ = append(c.Inst.Values, 1<<30)
		for _, s := range [][]int{c.Inst.Query, c.Inst.Context, c.Card.Query, c.Card.Context} {
			_ = append(s, -999)
		}
	}
	if !reflect.DeepEqual(hit, cold) {
		t.Fatal("an append to one slice of a warm hit overwrote another")
	}
	for i := range hit {
		c := &hit[i]
		c.Inst.Values = append(c.Inst.Values, 1<<30)
		c.Inst.Values[0] = 1 << 30
		for _, s := range []*[]int{&c.Inst.Query, &c.Inst.Context, &c.Card.Query, &c.Card.Context} {
			*s = append(*s, -999)
			(*s)[0] = -999
		}
		c.Score, c.Name = -1, "mutated"
	}
	if again := compareSets(t, g, query, cset, opt); !reflect.DeepEqual(again, cold) {
		t.Fatal("a caller's mutation of a warm hit reached the stored report")
	}
}

// TestTestLayerDoneCtxSkipsLookup: on a warm entry a done ctx still takes
// the uncached path — ctx.Err(), or under Partial the empty prefix with
// the full label count — and never reads or counts the layer.
func TestTestLayerDoneCtxSkipsLookup(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	cache := qcache.NewSharded(qcache.Config{Capacity: 64})
	opt := Options{Seed: 7, Cache: &Cache{Store: cache}}
	warm := compareSets(t, g, query, cset, opt)
	before := cache.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := CompareSets(ctx, g, query, cset, opt); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("done ctx on a warm entry: %d records, err %v; want nil, context.Canceled", len(out), err)
	}
	opt.Partial = true
	out, err := CompareSets(ctx, g, query, cset, opt)
	var pe *PartialError
	if !errors.As(err, &pe) || len(out) != 0 || pe.Tested != 0 || pe.Total != len(warm) {
		t.Fatalf("done ctx under Partial: %d records, err %v; want the empty prefix of %d", len(out), err, len(warm))
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("a done ctx touched the cache: %+v -> %+v", before, after)
	}
}

// TestTestLayerDegradedCutStoresNothing: a run cut mid-pool under Partial
// stores no report, and the next full run is bitwise the uncached one.
func TestTestLayerDegradedCutStoresNothing(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	want := compareSets(t, g, query, cset, Options{Seed: 7})
	cache := qcache.NewSharded(qcache.Config{Capacity: 64})
	opt := Options{Seed: 7, Partial: true, Cache: &Cache{Store: cache}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tested atomic.Int64
	testLabelHook = func() {
		if tested.Add(1) == 2 {
			cancel()
		}
	}
	_, err := CompareSets(ctx, g, query, cset, opt)
	testLabelHook = nil
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Tested >= pe.Total {
		t.Fatalf("err = %v, want a *PartialError short of every label", err)
	}
	if st := cache.Stats(); st.Size != 0 || st.Layers[qcache.LayerTest].Bytes != 0 {
		t.Fatalf("a degraded cut stored %d entries, %d bytes", st.Size, st.Layers[qcache.LayerTest].Bytes)
	}
	if got := compareSets(t, g, query, cset, opt); !reflect.DeepEqual(got, want) {
		t.Fatal("the full run after a degraded cut differs from the uncached one")
	}
}

// TestTestLayerEntryBytes: an entry weighs its key plus, per record, the
// record struct, its name, and its values, counts and five slice lengths
// at 4 bytes each (the packed layout).
func TestTestLayerEntryBytes(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	cache := qcache.NewSharded(qcache.Config{Capacity: 64})
	opt := Options{Seed: 7, Cache: &Cache{Store: cache}}
	var total int64
	for _, c := range []struct{ query, cset []uint32 }{{query, cset}, {query[:1], cset[:3]}} {
		report := compareSets(t, g, c.query, c.cset, opt)
		want := int64(len(opt.Cache.testKey(c.query, c.cset, opt.withDefaults())))
		for _, r := range report {
			counts := len(r.Inst.Query) + len(r.Inst.Context) + len(r.Card.Query) + len(r.Card.Context)
			want += int64(unsafe.Sizeof(r)) + int64(len(r.Name)) + 4*int64(len(r.Inst.Values)+5+counts)
		}
		total += want
		if got := cache.Stats().Layers[qcache.LayerTest].Bytes; got != total {
			t.Fatalf("test layer holds %d bytes, want %d (keys plus record footprints)", got, total)
		}
	}
}

// TestTestLayerKeysEveryOption: one store serves requests that differ in
// each option a report depends on — with TestPrefix set and with it left
// empty — and every answer, cold and warm, is the uncached one.
func TestTestLayerKeysEveryOption(t *testing.T) {
	g, query := leadersGraph()
	cset := peerContext(g)
	base := Options{Seed: 7}
	variants := []Options{base}
	for _, change := range []func(*Options){
		func(o *Options) { o.Test.Alpha = 0.0001 },
		func(o *Options) { o.Test.Samples = 300; o.Test.ExactLimit = 10 },
		func(o *Options) { o.Test.Samples = 300; o.Test.ExactLimit = 10; o.Test.Seed = 99 },
		func(o *Options) { o.Policy = dist.UnseenPooled },
		func(o *Options) { o.SkipInverse = true },
	} {
		o := base
		change(&o)
		variants = append(variants, o)
	}
	// Each option must matter here, or a key that drops it would pass.
	for i, a := range variants {
		for _, b := range variants[:i] {
			if reflect.DeepEqual(compareSets(t, g, query, cset, a), compareSets(t, g, query, cset, b)) {
				t.Fatalf("variant %d reports the same as an earlier one: the fixture cannot tell them apart", i)
			}
		}
	}
	for _, prefixed := range []bool{false, true} {
		cache := qcache.NewSharded(qcache.Config{Capacity: 64})
		for pass := 0; pass < 2; pass++ {
			for i, v := range variants {
				want := compareSets(t, g, query, cset, v)
				v.Cache = &Cache{Store: cache}
				if prefixed {
					v.Cache.TestPrefix = TestKeyPrefix("e0", v)
				}
				if got := compareSets(t, g, query, cset, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("prefixed %v pass %d: variant %d differs from its uncached report", prefixed, pass, i)
				}
			}
		}
		if st := cache.Stats().Layers[qcache.LayerTest]; st.Misses != uint64(len(variants)) || st.Hits != uint64(len(variants)) {
			t.Fatalf("prefixed %v: %+v, want one miss and one hit per variant", prefixed, st)
		}
	}
}

package notable

// Epoch-publish tests: what the engine does beside the store when an
// effective batch lands — the name index catches up in place, and the
// three epoch-keyed cache layers are dropped at once, without ever
// changing what a request pinned to the old epoch returns.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/qcache"
)

// epochKeyed are the cache layers whose keys fold the epoch.
var epochKeyed = []qcache.Layer{qcache.LayerSelector, qcache.LayerTest, qcache.LayerSeed}

// warmAllLayers runs a RandomWalk and a ContextRW query under an exact
// limit of 1, so every label samples: all four cache layers end up
// holding bytes.
func warmAllLayers(t *testing.T, e *Engine) qcache.Stats {
	t.Helper()
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	mustDo(t, e, Query{Nodes: query, Selector: SelectorRandomWalk})
	mustDo(t, e, Query{Nodes: query})
	st := e.CacheStats()
	for l, ls := range st.Layers {
		if ls.Bytes == 0 {
			t.Fatalf("warm-up left the %s layer empty: %+v", qcache.Layer(l), st)
		}
	}
	return st
}

// requirePurged asserts that the publish since before dropped exactly the
// epoch-keyed layers — counted as purges, not evictions — and left the
// content-keyed null layer alone.
func requirePurged(t *testing.T, what string, before, after qcache.Stats) {
	t.Helper()
	for _, l := range epochKeyed {
		if after.Layers[l].Bytes != 0 {
			t.Fatalf("%s: %s layer still holds %d bytes", what, l, after.Layers[l].Bytes)
		}
	}
	if after.Layers[qcache.LayerNull].Bytes != before.Layers[qcache.LayerNull].Bytes || after.Layers[qcache.LayerNull].Bytes != after.Bytes {
		t.Fatalf("%s: null layer %d -> %d bytes (total %d), want it untouched and alone",
			what, before.Layers[qcache.LayerNull].Bytes, after.Layers[qcache.LayerNull].Bytes, after.Bytes)
	}
	if dropped := uint64(before.Size - after.Size); dropped == 0 || after.Purged-before.Purged != dropped {
		t.Fatalf("%s: %d entries gone, Purged %d -> %d", what, dropped, before.Purged, after.Purged)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("%s: purge counted as %d evictions", what, after.Evictions-before.Evictions)
	}
}

// TestPublishPurgesEpochKeyedLayers: every way an engine publishes an
// epoch — ApplyTriples, a follower replaying the primary's log,
// ResetGraph — empties the selector, test and seed layers and keeps the
// null layer; a no-op batch and a compaction publish nothing and drop
// nothing.
func TestPublishPurgesEpochKeyedLayers(t *testing.T) {
	opt := Options{ContextSize: 8, Walks: 15000, Seed: 3, TestExactLimit: 1}
	ctx := context.Background()

	t.Run("ApplyTriples", func(t *testing.T) {
		e := NewEngine(buildLeaders(), opt)
		warm := warmAllLayers(t, e)
		if warm.Purged != 0 {
			t.Fatalf("warm-up purged %d entries", warm.Purged)
		}

		// A no-op batch keeps the epoch; compaction keeps it too.
		if ep, err := e.ApplyTriples(ctx, []Triple{{S: "Angela Merkel", P: "studied", O: "Physics"}}, nil); err != nil || ep != 0 {
			t.Fatalf("no-op batch: epoch %d, err %v", ep, err)
		}
		e.vg.Compact()
		if st := e.CacheStats(); st.Purged != 0 || st.Size != warm.Size || st.Bytes != warm.Bytes {
			t.Fatalf("no-op batch or compaction dropped cache entries: %+v -> %+v", warm, st)
		}

		if _, err := e.ApplyTriples(ctx, []Triple{{S: "Angela Merkel", P: "visited", O: "Atlantis"}}, nil); err != nil {
			t.Fatal(err)
		}
		requirePurged(t, "effective batch", warm, e.CacheStats())
		if st := e.VersionStats(); st.Rebuilds != 0 {
			t.Fatalf("one small batch compacted the store: %+v", st)
		}

		// Compaction of the now non-empty overlay republishes the same epoch:
		// entries computed since the bump stay.
		rewarm := warmAllLayers(t, e)
		e.vg.Compact()
		if st := e.CacheStats(); st.Purged != rewarm.Purged || st.Size != rewarm.Size {
			t.Fatalf("compaction dropped cache entries: %+v -> %+v", rewarm, st)
		}
		if st := e.VersionStats(); st.Rebuilds != 1 {
			t.Fatalf("explicit compaction: %+v", st)
		}
	})

	t.Run("follower apply", func(t *testing.T) {
		primary, _, err := NewDurableEngine(buildLeaders(), opt, quietDur(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer primary.Close()
		replica, snapEpoch := replicaFrom(t, primary, opt)
		defer replica.Close()
		warm := warmAllLayers(t, replica)
		applyBatches(t, primary, 1)
		replayTail(t, primary, replica, snapEpoch)
		requirePurged(t, "replayed batch", warm, replica.CacheStats())
	})

	t.Run("ResetGraph", func(t *testing.T) {
		replica := NewReplicaEngine(buildLeaders(), opt, 5)
		warm := warmAllLayers(t, replica)
		donor := NewEngine(buildLeaders(), opt)
		applyBatches(t, donor, 2)
		if err := replica.ResetGraph(donor.Graph().Materialize(), 7); err != nil {
			t.Fatal(err)
		}
		requirePurged(t, "reset", warm, replica.CacheStats())
		// A refused reset publishes nothing.
		rewarm := warmAllLayers(t, replica)
		if err := replica.ResetGraph(buildLeaders(), 3); err == nil {
			t.Fatal("ResetGraph accepted an epoch rewind")
		}
		if st := replica.CacheStats(); st.Purged != rewarm.Purged || st.Size != rewarm.Size {
			t.Fatalf("refused reset dropped cache entries: %+v -> %+v", rewarm, st)
		}
	})
}

// TestPinnedRequestSurvivesPurge: a request pinned to epoch N whose cache
// entries are purged mid-flight by the publish of N+1 — cold or warm,
// between the pin and selection or between selection and comparison —
// still returns the from-scratch answer at epoch N bit for bit; what it
// stores after the purge is unaddressable and goes at the next publish.
func TestPinnedRequestSurvivesPurge(t *testing.T) {
	ctx := context.Background()
	for _, sel := range []string{SelectorContextRW, SelectorRandomWalk} {
		for _, warm := range []bool{false, true} {
			for _, when := range []string{"before selection", "after selection"} {
				opt := Options{ContextSize: 8, Walks: 15000, Seed: 3, Selector: sel}
				e := NewEngine(buildLeaders(), opt)
				query, err := e.Resolve("Angela Merkel", "Barack Obama")
				if err != nil {
					t.Fatal(err)
				}
				refOpt := opt
				refOpt.CacheSize, refOpt.Parallelism = -1, 1
				want := mustDo(t, NewEngine(buildLeaders(), refOpt), Query{Nodes: query})
				if warm {
					mustDo(t, e, Query{Nodes: query})
				}

				view := e.vg.View() // the pin, as doOne takes it
				copt := e.coreOptionsFor(e.opt, view)
				publish := func() {
					if _, err := e.ApplyTriples(ctx, []Triple{{S: "Angela Merkel", P: "visited", O: "Atlantis"}}, nil); err != nil {
						t.Error(err)
					}
				}
				var got Result
				if when == "before selection" {
					publish()
					got, err = core.FindNC(ctx, view.G, query, copt)
				} else {
					// FindNC's two stages by hand, with the publish between them.
					got = Result{Query: query, Context: core.Contexts(ctx, view.G, [][]NodeID{query}, copt, nil)[0]}
					publish()
					got.Characteristics, err = core.CompareSets(ctx, view.G, query, got.ContextIDs(), copt)
				}
				if err != nil {
					t.Fatal(err)
				}
				what := sel + ", " + when
				if warm {
					what += ", warm"
				}
				if e.Epoch() != 1 || (warm && e.CacheStats().Purged == 0) {
					t.Fatalf("%s: the publish did not land mid-request (epoch %d, stats %+v)", what, e.Epoch(), e.CacheStats())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: pinned request differs from the from-scratch answer at its epoch", what)
				}

				// The pinned request stored epoch-0 entries after the purge; a
				// request at epoch 1 never sees them and the next publish drops them.
				if st := e.CacheStats(); st.Layers[qcache.LayerTest].Bytes == 0 {
					t.Fatalf("%s: pinned request stored nothing after the purge: %+v", what, st)
				}
				live := mustDo(t, e, Query{Nodes: query})
				if ref := mustDo(t, referenceEngine(e, refOpt), Query{Nodes: query}); !reflect.DeepEqual(live, ref) {
					t.Fatalf("%s: request at the new epoch differs from a from-scratch engine", what)
				}
				if _, err := e.ApplyTriples(ctx, []Triple{{S: "Barack Obama", P: "visited", O: "Atlantis"}}, nil); err != nil {
					t.Fatal(err)
				}
				if st := e.CacheStats(); st.Layers[qcache.LayerSelector].Bytes+st.Layers[qcache.LayerTest].Bytes+st.Layers[qcache.LayerSeed].Bytes != 0 {
					t.Fatalf("%s: stale entries outlived the next publish: %+v", what, st)
				}
				if st := e.VersionStats(); st.Rebuilds != 0 {
					t.Fatalf("%s: two small batches compacted the store: %+v", what, st)
				}
			}
		}
	}
}

// TestResolveCatchesUpWithPublishedView: an epoch published through the
// store alone — the gap a reader can land in between vg.Apply and the
// ingest path's own Extend — is resolvable at once: Resolve and Suggest
// extend a lagging index themselves, so a node the reader could already
// query by id is never "unresolved", nor shadowed by an older fuzzy match.
func TestResolveCatchesUpWithPublishedView(t *testing.T) {
	e := NewEngine(buildLeaders(), Options{})
	shadow, err := e.Resolve("Child of Barack") // fuzzy: only "Child of Barack Obama" covers all three tokens
	if err != nil || e.Graph().NodeName(shadow[0]) != "Child of Barack Obama" {
		t.Fatalf("fuzzy resolve before the batch: %v, %v", shadow, err)
	}
	view, err := e.vg.Apply([]kg.Triple{
		{S: "Angela Merkel", P: "visited", O: "Atlantis"},
		{S: "Child of Barack", P: "visited", O: "Atlantis"},
	}, nil)
	if err != nil || view.Epoch != 1 {
		t.Fatalf("store apply: %v, %v", view, err)
	}
	if n := e.idx.Load().NumNodes(); n >= view.G.NumNodes() {
		t.Fatalf("index already covers %d of %d nodes: the test no longer exercises the gap", n, view.G.NumNodes())
	}
	for mention, want := range map[string]string{
		"Atlantis": "Atlantis", "atlantis ": "Atlantis", "Child of Barack": "Child of Barack",
	} {
		ids, err := e.Resolve(mention)
		if err != nil {
			t.Fatalf("Resolve(%q) on a lagging index: %v", mention, err)
		}
		if got := view.G.NodeName(ids[0]); got != want {
			t.Fatalf("Resolve(%q) = %q, want the node the batch created", mention, got)
		}
	}
	if n := e.idx.Load().NumNodes(); n != view.G.NumNodes() {
		t.Fatalf("index covers %d of %d nodes after Resolve", n, view.G.NumNodes())
	}

	// Suggest catches up the same way.
	if _, err := e.vg.Apply([]kg.Triple{{S: "Atlantis", P: "near", O: "Lemuria"}}, nil); err != nil {
		t.Fatal(err)
	}
	if hits := e.Suggest("lemuria", 3); len(hits) != 1 || hits[0].Name != "Lemuria" || hits[0].Score != 1 {
		t.Fatalf("Suggest on a lagging index = %v", hits)
	}
}

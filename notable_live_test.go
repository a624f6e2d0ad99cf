package notable

// Live-mutation tests: ApplyTriples end to end through the facade —
// epoch-pinned results bitwise identical to a from-scratch rebuild,
// cache purity across epoch bumps, per-request Walks/Damping override
// equivalence, and concurrent queries racing mutations and compaction.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// referenceEngine builds a fresh engine over a from-scratch rebuild of
// e's current graph (a full Builder replay via Materialize) with the
// same options — the oracle every live result must match bitwise.
func referenceEngine(e *Engine, opt Options) *Engine {
	return NewEngine(e.Graph().Materialize(), opt)
}

func mustDo(t *testing.T, e *Engine, q Query) Result {
	t.Helper()
	res, err := e.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestApplyTriplesMatchesFromScratch(t *testing.T) {
	batches := []struct {
		name string
		adds []Triple
		dels []Triple
	}{
		{name: "existing nodes", adds: []Triple{
			{S: "Barack Obama", P: "met", O: "Angela Merkel"},
			{S: "Angela Merkel", P: "attended", O: "Summit"}, // duplicate: no-op edge
		}},
		{name: "new nodes and labels", adds: []Triple{
			{S: "Angela Merkel", P: "awarded", O: "Nobel Prize"},
			{S: "Barack Obama", P: "awarded", O: "Nobel Prize"},
			{S: "Nobel Prize", P: "type", O: "award"},
		}},
		{name: "deletes", dels: []Triple{
			{S: "Angela Merkel", P: "studied", O: "Physics"},
			{S: "Nobody Known", P: "met", O: "Angela Merkel"}, // unknown node: no-op
		}},
	}
	for _, sel := range []string{SelectorContextRW, SelectorRandomWalk} {
		opt := Options{ContextSize: 8, Walks: 15000, Seed: 3, Selector: sel}
		e := NewEngine(buildLeaders(), opt)
		query, err := e.Resolve("Angela Merkel", "Barack Obama")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, err := e.ApplyTriples(context.Background(), b.adds, b.dels); err != nil {
				t.Fatalf("%s %s: %v", sel, b.name, err)
			}
			got := mustDo(t, e, Query{Nodes: query})
			want := mustDo(t, referenceEngine(e, opt), Query{Nodes: query})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %q: live result differs from from-scratch rebuild", sel, b.name)
			}
		}
		// Compaction changes no bits and keeps the epoch.
		epoch := e.Epoch()
		e.vg.Compact()
		if e.Epoch() != epoch {
			t.Fatalf("compaction moved the epoch: %d -> %d", epoch, e.Epoch())
		}
		got := mustDo(t, e, Query{Nodes: query})
		want := mustDo(t, referenceEngine(e, opt), Query{Nodes: query})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after compaction: result differs from from-scratch rebuild", sel)
		}
	}
}

func TestApplyTriplesCachePurity(t *testing.T) {
	opt := Options{ContextSize: 8, Walks: 15000, Seed: 3}
	e := NewEngine(buildLeaders(), opt)
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Nodes: query}
	cold := mustDo(t, e, q)
	if warm := mustDo(t, e, q); !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm repeat differs from cold run")
	}

	// An effective mutation bumps the epoch: the next query must be
	// computed against the new graph, never served from pre-bump entries.
	if _, err := e.ApplyTriples(context.Background(),
		[]Triple{{S: "Angela Merkel", P: "studied", O: "Law"}},
		[]Triple{{S: "Angela Merkel", P: "studied", O: "Physics"}}); err != nil {
		t.Fatal(err)
	}
	got := mustDo(t, e, q)
	want := mustDo(t, referenceEngine(e, opt), q)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-mutation result differs from a fresh engine on the mutated graph")
	}

	// Re-querying at the unchanged epoch is a pure hit: no new misses.
	before := e.CacheStats()
	if again := mustDo(t, e, q); !reflect.DeepEqual(again, got) {
		t.Fatal("warm repeat at unchanged epoch differs")
	}
	after := e.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("warm repeat at unchanged epoch missed the cache: %d -> %d misses",
			before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("warm repeat at unchanged epoch recorded no hits")
	}

	// A no-op batch keeps the epoch, so caches stay warm across it.
	epoch := e.Epoch()
	if ep, err := e.ApplyTriples(context.Background(),
		[]Triple{{S: "Angela Merkel", P: "studied", O: "Law"}}, nil); err != nil || ep != epoch {
		t.Fatalf("no-op batch: epoch %d -> %d, err %v", epoch, ep, err)
	}
	before = e.CacheStats()
	mustDo(t, e, q)
	if after := e.CacheStats(); after.Misses != before.Misses {
		t.Fatal("no-op batch invalidated warm cache entries")
	}
}

func TestQueryWalksDampingOverrideEquivalence(t *testing.T) {
	g := buildLeaders()
	query, err := NewEngine(g, Options{}).Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("walks", func(t *testing.T) {
		base := Options{ContextSize: 8, Walks: 30000, Seed: 3}
		a := NewEngine(g, base)
		override := mustDo(t, a, Query{Nodes: query, Walks: 15000})
		asOption := base
		asOption.Walks = 15000
		want := mustDo(t, NewEngine(g, asOption), Query{Nodes: query})
		if !reflect.DeepEqual(override, want) {
			t.Fatal("Walks override differs from an engine configured with the same Walks")
		}
		// The override's cache entries are keyed apart: a plain query on
		// the same engine still matches the engine-default configuration.
		plain := mustDo(t, a, Query{Nodes: query})
		wantPlain := mustDo(t, NewEngine(g, base), Query{Nodes: query})
		if !reflect.DeepEqual(plain, wantPlain) {
			t.Fatal("plain query polluted by a prior Walks override")
		}
		// And a warm repeat of the override serves the same bits.
		if again := mustDo(t, a, Query{Nodes: query, Walks: 15000}); !reflect.DeepEqual(again, override) {
			t.Fatal("warm Walks override differs from its cold run")
		}
	})
	t.Run("damping", func(t *testing.T) {
		base := Options{ContextSize: 8, Seed: 3, Selector: SelectorRandomWalk}
		a := NewEngine(g, base)
		override := mustDo(t, a, Query{Nodes: query, Damping: 0.3})
		asOption := base
		asOption.Damping = 0.3
		want := mustDo(t, NewEngine(g, asOption), Query{Nodes: query})
		if !reflect.DeepEqual(override, want) {
			t.Fatal("Damping override differs from an engine configured with the same Damping")
		}
		plain := mustDo(t, a, Query{Nodes: query})
		wantPlain := mustDo(t, NewEngine(g, base), Query{Nodes: query})
		if !reflect.DeepEqual(plain, wantPlain) {
			t.Fatal("plain query polluted by a prior Damping override")
		}
	})
	t.Run("validation", func(t *testing.T) {
		e := NewEngine(g, Options{})
		if _, err := e.Do(context.Background(), Query{Nodes: query, Walks: -1}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("negative Walks: err = %v, want ErrBadQuery", err)
		}
		if _, err := e.Do(context.Background(), Query{Nodes: query, Damping: 1.5}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Damping 1.5: err = %v, want ErrBadQuery", err)
		}
		// The engine's budget bounds Walks, so its walk bank never grows
		// past it: DefaultWalks here, Options.Walks when set.
		if _, err := e.Do(context.Background(), Query{Nodes: query, Walks: DefaultWalks + 1}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Walks above DefaultWalks: err = %v, want ErrBadQuery", err)
		}
		small := NewEngine(g, Options{Walks: 1000})
		for _, do := range []func(Query) error{
			func(q Query) error { _, err := small.Do(context.Background(), q); return err },
			func(q Query) error { _, err := small.DoBatch(context.Background(), []Query{q}); return err },
			func(q Query) error { return (<-small.DoStream(context.Background(), []Query{q})).Err },
		} {
			if err := do(Query{Nodes: query, Walks: 1001}); !errors.Is(err, ErrBadQuery) {
				t.Fatalf("Walks 1001 on a 1000-walk engine: err = %v, want ErrBadQuery", err)
			}
		}
	})
}

// TestQueryWalksReadOneBank: rising per-request Walks on one default engine
// read prefixes of a single walk bank built at the engine's budget, and
// answer bit for bit as engines configured with each budget do. Every
// engine gets its own graph, so none reads another's bank.
func TestQueryWalksReadOneBank(t *testing.T) {
	e := NewEngine(buildLeaders(), Options{})
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	for w := 60001; w <= 60006; w++ {
		got := mustDo(t, e, Query{Nodes: query, Walks: w})
		want := mustDo(t, NewEngine(buildLeaders(), Options{Walks: w}), Query{Nodes: query})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Walks %d on a default engine differs from an engine built at %d", w, w)
		}
	}
	if got := stageCount(t, e, "mine_bank_build"); got != 1 {
		t.Fatalf("%d walk-bank builds for six rising Walks, want 1", got)
	}
}

func TestApplyTriplesErrorsAndEpochs(t *testing.T) {
	e := NewEngine(buildLeaders(), Options{})
	ctx := context.Background()
	if _, err := e.ApplyTriples(ctx, []Triple{{S: "", P: "met", O: "x"}}, nil); !errors.Is(err, ErrBadTriple) {
		t.Fatalf("empty subject: err = %v, want ErrBadTriple", err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("rejected batch moved the epoch to %d", e.Epoch())
	}
	ep, err := e.ApplyTriples(ctx, []Triple{{S: "Angela Merkel", P: "awarded", O: "Nobel Prize"}}, nil)
	if err != nil || ep != 1 {
		t.Fatalf("effective batch: epoch %d, err %v", ep, err)
	}
	// New nodes become resolvable without a restart.
	if _, err := e.Resolve("Nobel Prize"); err != nil {
		t.Fatalf("new node not resolvable after ingest: %v", err)
	}
	st := e.VersionStats()
	if st.Epoch != 1 || st.OverlayAdds == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentQueriesDuringApplyAndCompaction races Do and DoStream
// against a mutating writer that starts a compaction after every batch,
// each batch dropping the epoch-keyed cache layers mid-request: every
// result must be error-free and bitwise equal to the from-scratch result
// of SOME published epoch — a torn graph, or a cache entry served across
// epochs, would produce a result matching none.
func TestConcurrentQueriesDuringApplyAndCompaction(t *testing.T) {
	opt := Options{ContextSize: 6, Walks: 5000, Seed: 2}
	e := NewEngine(buildLeaders(), opt)
	query, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Query{Nodes: query}

	const batches = 6
	epochGraphs := []*Graph{e.Graph()} // index = epoch
	var (
		mu      sync.Mutex
		results []Result
	)
	collect := func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}

	var wg, compactions sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Do(ctx, q)
				if err != nil {
					t.Error(err)
					return
				}
				collect(res)
				for o := range e.DoStream(ctx, []Query{q, q}) {
					if o.Err != nil {
						t.Error(o.Err)
						return
					}
					collect(o.Result)
				}
			}
		}()
	}
	// resultsAtLeast keeps the writer interleaved with the readers: each
	// batch lands only after the readers made progress, so queries
	// genuinely race the mutations instead of all running afterwards.
	resultsAtLeast := func(n int) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			mu.Lock()
			have := len(results)
			mu.Unlock()
			if have >= n || time.Now().After(deadline) {
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < batches; i++ {
		resultsAtLeast(2 * (i + 1))
		adds := []Triple{
			{S: "Angela Merkel", P: "visited", O: countryName(i)},
			{S: "Barack Obama", P: "visited", O: countryName(i)},
		}
		var dels []Triple
		if i%2 == 1 {
			dels = []Triple{{S: "Angela Merkel", P: "visited", O: countryName(i - 1)}}
		}
		if _, err := e.ApplyTriples(ctx, adds, dels); err != nil {
			t.Fatal(err)
		}
		epochGraphs = append(epochGraphs, e.Graph())
		// Fold the overlay off-thread while the readers and the next
		// batch run, as the background compactor would.
		compactions.Add(1)
		go func() {
			defer compactions.Done()
			e.vg.Compact()
		}()
	}
	resultsAtLeast(2*batches + 2)
	close(stop)
	wg.Wait()
	compactions.Wait()
	if st := e.VersionStats(); st.Rebuilds == 0 {
		t.Fatal("compaction never ran")
	}
	// Every batch also purged the epoch-keyed cache layers under the
	// readers' feet; the comparison below holds them to the bits anyway.
	if st := e.CacheStats(); st.Purged == 0 {
		t.Fatalf("six effective batches purged nothing: %+v", st)
	}

	// One from-scratch oracle per epoch; every concurrent result must
	// match one of them exactly.
	wants := make([]Result, len(epochGraphs))
	for ep, g := range epochGraphs {
		wants[ep] = mustDo(t, NewEngine(g.Materialize(), opt), q)
	}
	for _, res := range results {
		ok := false
		for _, want := range wants {
			if reflect.DeepEqual(res, want) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("a concurrent result matches no published epoch (torn graph?); %d results, %d epochs",
				len(results), len(wants))
		}
	}
	if len(results) == 0 {
		t.Fatal("readers produced no results")
	}
}

func countryName(i int) string {
	return "Country " + string(rune('A'+i))
}

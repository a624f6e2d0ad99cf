package notable

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/qcache"
)

// TestDoMatchesSearchBitwise: for equal engine options and no overrides,
// Do on a fresh engine is bitwise reproducible — across selectors and
// cache states.
func TestDoMatchesSearchBitwise(t *testing.T) {
	g := buildLeaders()
	for _, sel := range []string{SelectorRandomWalk, SelectorContextRW} {
		for _, cacheSize := range []int{0, -1} {
			opt := Options{ContextSize: 6, Selector: sel, Walks: 20000, Seed: 3,
				TestSamples: 500, CacheSize: cacheSize}
			searchEng := NewEngine(g, opt)
			queries := leaderQueries(t, searchEng, 4)
			want := searchSequential(t, searchEng, queries)

			doEng := NewEngine(g, opt)
			for i, q := range queries {
				got, err := doEng.Do(context.Background(), Query{Nodes: q})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("sel=%s cache=%d: Do(%d) differs between equal engines", sel, cacheSize, i)
				}
			}
		}
	}
}

// TestDoOverridesMatchEngineOptions: a per-request override must produce
// exactly what an engine configured with that option produces — for every
// overridable field.
func TestDoOverridesMatchEngineOptions(t *testing.T) {
	g := buildLeaders()
	base := Options{ContextSize: 6, Walks: 20000, Seed: 3, TestSamples: 500}
	e := NewEngine(g, base)
	nodes, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		q    Query
		opt  func(Options) Options
	}{
		{"ContextSize", Query{ContextSize: 4}, func(o Options) Options { o.ContextSize = 4; return o }},
		{"Selector", Query{Selector: SelectorRandomWalk}, func(o Options) Options { o.Selector = SelectorRandomWalk; return o }},
		{"Alpha", Query{Alpha: 0.2}, func(o Options) Options { o.Alpha = 0.2; return o }},
		{"Policy", Query{Policy: PolicyPooled}, func(o Options) Options { o.Policy = PolicyPooled; return o }},
		{"TestSamples", Query{TestSamples: 300}, func(o Options) Options { o.TestSamples = 300; return o }},
	}
	for _, tc := range cases {
		q := tc.q
		q.Nodes = nodes
		got, err := NewEngine(g, base).Do(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := NewEngine(g, tc.opt(base)).Do(context.Background(), Query{Nodes: nodes})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s override differs from engine-level option", tc.name)
		}
	}
}

// TestDoTopK: the TopK cut truncates the ranked characteristics and
// nothing else.
func TestDoTopK(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 6, Walks: 20000, Seed: 3, TestSamples: 500})
	nodes, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Do(context.Background(), Query{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Characteristics) < 3 {
		t.Skipf("only %d characteristics; fixture too small", len(full.Characteristics))
	}
	cut, err := e.Do(context.Background(), Query{Nodes: nodes, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Characteristics) != 2 {
		t.Fatalf("TopK=2 returned %d characteristics", len(cut.Characteristics))
	}
	if !reflect.DeepEqual(cut.Characteristics, full.Characteristics[:2]) {
		t.Fatal("TopK cut is not the prefix of the full ranking")
	}
	if !reflect.DeepEqual(cut.Context, full.Context) {
		t.Fatal("TopK changed the context")
	}
	// A cut beyond the tested label count is a no-op.
	big, err := e.Do(context.Background(), Query{Nodes: nodes, TopK: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(big, full) {
		t.Fatal("oversized TopK changed the result")
	}
}

// TestDoBatchMatchesSearchBatchBitwise: with no overrides, DoBatch
// returns per query exactly what sequential Do calls on an equally fresh
// engine return.
func TestDoBatchMatchesSearchBatchBitwise(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	soloEng := NewEngine(g, opt)
	queries := leaderQueries(t, soloEng, 6)
	want := searchSequential(t, soloEng, queries)
	got, err := NewEngine(g, opt).DoBatch(context.Background(), asQueries(queries))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DoBatch differs from sequential Do")
	}
}

// TestNonPositiveWalksReadsDefault: an engine built with Walks −1 reads
// DefaultWalks, as one built with Walks 0 does — its default ContextRW
// requests answer bitwise like a default engine's, with a non-empty
// context, and it accepts exactly the same per-request budgets.
func TestNonPositiveWalksReadsDefault(t *testing.T) {
	g := buildLeaders()
	ctx := context.Background()
	def := NewEngine(g, Options{ContextSize: 6, TestSamples: 500})
	neg := NewEngine(g, Options{ContextSize: 6, TestSamples: 500, Walks: -1})
	queries := leaderQueries(t, def, 4)
	want, err := def.DoBatch(ctx, asQueries(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, err := neg.Do(ctx, Query{Nodes: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Context) == 0 || !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %d: a Walks −1 engine answers %d context nodes, unlike the default engine's %d", i, len(got.Context), len(want[i].Context))
		}
		if !reflect.DeepEqual(neg.Context(q, 6), def.Context(q, 6)) {
			t.Fatalf("query %d: Context differs between a Walks −1 engine and a default one", i)
		}
	}
	got, err := neg.DoBatch(ctx, asQueries(queries))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DoBatch on a Walks −1 engine differs from a default engine's (err %v)", err)
	}
	for _, e := range []*Engine{def, neg} {
		if _, err := e.Do(ctx, Query{Nodes: queries[0], Walks: DefaultWalks}); err != nil {
			t.Fatalf("Walks = DefaultWalks refused: %v", err)
		}
		if _, err := e.Do(ctx, Query{Nodes: queries[0], Walks: DefaultWalks + 1}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Walks above DefaultWalks: err = %v, want ErrBadQuery", err)
		}
	}
}

// TestDoBatchMixedOverrides: a batch whose queries carry different
// overrides groups by effective options and still returns, per query,
// exactly what a solo Do with the same overrides returns.
func TestDoBatchMixedOverrides(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	queries := leaderQueries(t, e, 5)
	qs := make([]Query, len(queries))
	for i, q := range queries {
		qs[i] = Query{Nodes: q}
	}
	qs[1].ContextSize = 4
	qs[2].Alpha = 0.2
	qs[3].TopK = 1 // post-cut: must not split the solve group
	got, err := e.DoBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	solo := NewEngine(g, opt)
	for i, q := range qs {
		want, err := solo.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch result %d differs from solo Do with the same overrides", i)
		}
	}
}

// TestTypedErrors: the sentinel and struct errors survive the public
// entry points with errors.Is/As support.
func TestTypedErrors(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 4, Walks: 5000, Seed: 1})
	ctx := context.Background()
	if _, err := e.Do(ctx, Query{}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("Do on empty query: %v, want ErrEmptyQuery", err)
	}
	_, err := e.DoBatch(ctx, []Query{{Nodes: []NodeID{1}}, {}})
	if !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("DoBatch with empty query: %v, want ErrEmptyQuery", err)
	}
	if want := "batch index 1"; err == nil || !contains(err.Error(), want) {
		t.Fatalf("DoBatch error %q does not name the index", err)
	}

	_, err = e.Resolve("Angela Merkel", "No Such Person", "Nor This One")
	var ue *UnresolvedError
	if !errors.As(err, &ue) {
		t.Fatalf("Resolve: %v, want *UnresolvedError", err)
	}
	if !reflect.DeepEqual(ue.Missing, []string{"No Such Person", "Nor This One"}) {
		t.Fatalf("Missing = %v", ue.Missing)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// countdownCtx is a context.Context whose Err flips to Canceled after a
// fixed number of Err() probes — a deterministic way to cancel "mid-PPR"
// or "mid-comparison": the pipeline checks ctx between sweeps and label
// tests, so the k-th check is a precise cut point regardless of timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDoCancelledMidFlight: cancelling partway through the pipeline (at
// every feasible probe depth, in every request mode) returns
// context.Canceled, and the engine's shared cache is never corrupted — a
// subsequent identical request on the same engine returns bitwise what a
// fresh engine computes.
func TestDoCancelledMidFlight(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	nodes, err := NewEngine(g, opt).Resolve("Angela Merkel", "Barack Obama", "Vladimir Putin")
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{{Nodes: nodes}, {Nodes: nodes[:2]}}
	// Each mode reports the first error any of its queries hit.
	modes := []struct {
		name string
		run  func(ctx context.Context, e *Engine) ([]Result, error)
	}{
		{"Do", func(ctx context.Context, e *Engine) ([]Result, error) {
			res, err := e.Do(ctx, qs[0])
			return []Result{res}, err
		}},
		{"DoBatch", func(ctx context.Context, e *Engine) ([]Result, error) {
			return e.DoBatch(ctx, qs)
		}},
		{"DoStream", func(ctx context.Context, e *Engine) ([]Result, error) {
			out := make([]Result, len(qs))
			var first error
			for o := range e.DoStream(ctx, qs) {
				out[o.Index] = o.Result
				if o.Err != nil && first == nil {
					first = o.Err
				}
			}
			return out, first
		}},
	}
	for _, mode := range modes {
		want, err := mode.run(context.Background(), NewEngine(g, opt))
		if err != nil {
			t.Fatal(err)
		}
		// Find how many probes a cold run needs, then cancel at depths below
		// it: early cuts land mid-PPR, later ones mid-comparison. Each cut
		// runs on a cold engine — a warm engine skips probe points along with
		// the work, so only a cold run's probe schedule is deterministic. The
		// stream's comparison goroutines probe concurrently, so a late stream
		// cut may land after everything finished: only its error type is
		// constrained.
		probe := newCountdownCtx(1 << 30)
		if _, err := mode.run(probe, NewEngine(g, opt)); err != nil {
			t.Fatal(err)
		}
		total := (1 << 30) - probe.left.Load()
		if total < 4 {
			t.Fatalf("%s: pipeline only probed ctx %d times; cut points too coarse", mode.name, total)
		}
		scarred := NewEngine(g, opt)
		for k := int64(0); k < total; k += 1 + total/16 {
			_, err := mode.run(newCountdownCtx(k), NewEngine(g, opt))
			if !errors.Is(err, context.Canceled) && !(err == nil && mode.name == "DoStream") {
				t.Fatalf("%s: cold cut at probe %d: err = %v, want context.Canceled", mode.name, k, err)
			}
			// The same cut against one accumulating engine: its cache absorbs
			// whatever the aborted runs stored. Warm skips can let a late cut
			// finish early, so only the error type is constrained, not its
			// presence.
			if _, err := mode.run(newCountdownCtx(k), scarred); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: scarred cut at probe %d: unexpected err %v", mode.name, k, err)
			}
		}
		// The aborted runs may have cached complete sub-results but never
		// partial ones: the same request must now complete bitwise
		// identically to the uncancelled engine.
		got, err := mode.run(context.Background(), scarred)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result after cancelled runs differs — cache corrupted", mode.name)
		}
		// And the cache still behaves as a cache: a warm repeat is pure hits.
		missesBefore := scarred.CacheStats().Misses
		if _, err := mode.run(context.Background(), scarred); err != nil {
			t.Fatal(err)
		}
		if st := scarred.CacheStats(); st.Misses != missesBefore {
			t.Fatalf("%s: warm repeat missed after cancelled runs: %+v", mode.name, st)
		}
	}
}

// TestLoadGraphFileSniffsSnapshot: a snapshot without the .kgsnap
// extension loads via magic-byte sniffing instead of failing as a triple
// parse, and non-snapshot files still parse as triples.
func TestLoadGraphFileSniffsSnapshot(t *testing.T) {
	g := buildLeaders()
	path := filepath.Join(t.TempDir(), "renamed-snapshot.bin")
	if err := SaveSnapshotFile(g, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraphFile(path)
	if err != nil {
		t.Fatalf("renamed snapshot failed to load: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("sniffed snapshot mismatch: %s vs %s", got.Stats(), g.Stats())
	}
	// A triple file starting with ordinary text keeps parsing as triples.
	tsv := filepath.Join(t.TempDir(), "facts.bin")
	if err := writeFile(tsv, "a\tp\tb\nb\tp\tc\n"); err != nil {
		t.Fatal(err)
	}
	tg, err := LoadGraphFile(tsv)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumNodes() != 3 {
		t.Fatalf("triple fallback NumNodes = %d", tg.NumNodes())
	}
	// A tiny file shorter than the magic is a (failing) triple parse, not
	// a sniff panic.
	tiny := filepath.Join(t.TempDir(), "tiny.bin")
	if err := writeFile(tiny, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraphFile(tiny); err == nil {
		t.Fatal("malformed tiny file should error")
	}
}

// TestCancelledRunStoresNoPartialSeedVectors: a request aborted mid-PPR
// leaves the seed-vector layer empty — nothing partial was stored.
func TestCancelledRunStoresNoPartialSeedVectors(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	e := NewEngine(g, opt)
	nodes, err := e.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	// Cut after the very first probe: inside the PPR solve, before any
	// seed vector completes.
	if _, err := e.Do(newCountdownCtx(1), Query{Nodes: nodes}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.CacheStats(); st.Layers[qcache.LayerSeed].Bytes != 0 {
		t.Fatalf("seed layer holds %d bytes after an aborted solve", st.Layers[qcache.LayerSeed].Bytes)
	}
}

// TestQueryValidation: override values no engine configuration could make
// valid return ErrBadQuery naming the field — from Do, DoBatch, and
// DoStream alike — instead of silently inheriting engine defaults.
func TestQueryValidation(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 4, Walks: 5000, Seed: 1, TestSamples: 500})
	ctx := context.Background()
	nodes, err := e.Resolve("Angela Merkel")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field string
		q     Query
	}{
		{"TopK", Query{Nodes: nodes, TopK: -1}},
		{"ContextSize", Query{Nodes: nodes, ContextSize: -3}},
		{"Alpha", Query{Nodes: nodes, Alpha: -0.05}},
		{"Alpha", Query{Nodes: nodes, Alpha: 1}},
		{"Alpha", Query{Nodes: nodes, Alpha: 1.5}},
		{"TestSamples", Query{Nodes: nodes, TestSamples: -5}},
		// Above the engine's cap of 500.
		{"TestSamples", Query{Nodes: nodes, TestSamples: 501}},
		// ctxsel.RandomWalk's Name(), not the Selector* constant.
		{"Selector", Query{Nodes: nodes, Selector: "RandomWalk"}},
		{"Selector", Query{Nodes: nodes, Selector: "pagerank"}},
		{"Policy", Query{Nodes: nodes, Policy: "pooledd"}},
	}
	for _, tc := range cases {
		_, err := e.Do(ctx, tc.q)
		if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%s: Do err = %v, want ErrBadQuery", tc.field, err)
		}
		if !contains(err.Error(), tc.field) {
			t.Fatalf("%s: error %q does not name the field", tc.field, err)
		}
		if errors.Is(err, ErrEmptyQuery) {
			t.Fatalf("%s: bad-override error must not match ErrEmptyQuery", tc.field)
		}
	}

	// Batch: the whole batch fails, naming the offending index.
	_, err = e.DoBatch(ctx, []Query{{Nodes: nodes}, {Nodes: nodes, TopK: -2}})
	if !errors.Is(err, ErrBadQuery) || !contains(err.Error(), "batch index 1") {
		t.Fatalf("DoBatch err = %v, want ErrBadQuery naming index 1", err)
	}

	// Stream: the malformed query yields a typed-error outcome, the valid
	// one still completes.
	outcomes := map[int]Outcome{}
	for o := range e.DoStream(ctx, []Query{{Nodes: nodes, Alpha: 2}, {Nodes: nodes}}) {
		outcomes[o.Index] = o
	}
	if !errors.Is(outcomes[0].Err, ErrBadQuery) {
		t.Fatalf("stream outcome 0 err = %v, want ErrBadQuery", outcomes[0].Err)
	}
	if outcomes[1].Err != nil || len(outcomes[1].Result.Characteristics) == 0 {
		t.Fatalf("stream outcome 1 = %+v, want a completed result", outcomes[1])
	}

	// An unknown selector fails per index in both batch modes too.
	_, err = e.DoBatch(ctx, []Query{{Nodes: nodes}, {Nodes: nodes, Selector: "RandomWalk"}})
	if !errors.Is(err, ErrBadQuery) || !contains(err.Error(), "batch index 1") || !contains(err.Error(), "Selector") {
		t.Fatalf("DoBatch err = %v, want ErrBadQuery naming Selector at index 1", err)
	}
	for o := range e.DoStream(ctx, []Query{{Nodes: nodes}, {Nodes: nodes, Selector: "RandomWalk"}}) {
		if bad := o.Index == 1; bad != errors.Is(o.Err, ErrBadQuery) {
			t.Fatalf("stream outcome %d err = %v", o.Index, o.Err)
		}
	}

	// A node ID past the graph is ErrBadQuery naming index and value under
	// every selector and entry point — never a panic in a selector or a
	// PageRank worker.
	n := NodeID(g.NumNodes())
	outside := []NodeID{nodes[0], n + 7}
	const named = "Nodes[1] = "
	for _, sel := range []string{SelectorContextRW, SelectorRandomWalk, SelectorJaccard, SelectorSimRank} {
		bad := Query{Nodes: outside, Selector: sel}
		if _, err := e.Do(ctx, bad); !errors.Is(err, ErrBadQuery) || !contains(err.Error(), named+fmt.Sprint(n+7)) {
			t.Fatalf("%s: Do err = %v, want ErrBadQuery naming %s%d", sel, err, named, n+7)
		}
		if _, err := e.DoBatch(ctx, []Query{{Nodes: nodes, Selector: sel}, bad}); !errors.Is(err, ErrBadQuery) ||
			!contains(err.Error(), "batch index 1") || !contains(err.Error(), named) {
			t.Fatalf("%s: DoBatch err = %v, want ErrBadQuery naming index 1", sel, err)
		}
		for o := range e.DoStream(ctx, []Query{bad, {Nodes: nodes, Selector: sel}}) {
			if isBad := o.Index == 0; isBad != errors.Is(o.Err, ErrBadQuery) || (!isBad && len(o.Result.Characteristics) == 0) {
				t.Fatalf("%s: stream outcome %d = %+v", sel, o.Index, o)
			}
		}
	}
	if got := e.Context(outside, 3); len(got) != 0 {
		t.Fatalf("Context of a query past the graph = %v, want empty", got)
	}
}

// TestDoDegraded: with Query.Degrade, a cut landing in the comparison
// stage returns HTTP-servable partial state — the full context plus a
// prefix-consistent subset of the uncut report — alongside a
// *DegradedError; cuts before the context completes still fail whole, and
// the engine's cache stays uncorrupted either way.
func TestDoDegraded(t *testing.T) {
	g := buildLeaders()
	opt := Options{ContextSize: 6, Selector: SelectorRandomWalk, Seed: 3, TestSamples: 500}
	want, err := NewEngine(g, opt).Do(context.Background(), Query{Nodes: mustResolve(t, g, opt)})
	if err != nil {
		t.Fatal(err)
	}
	wantByName := map[string]Characteristic{}
	for _, c := range want.Characteristics {
		wantByName[c.Name] = c
	}
	nodes := mustResolve(t, g, opt)

	probe := newCountdownCtx(1 << 30)
	if _, err := NewEngine(g, opt).Do(probe, Query{Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	total := (1 << 30) - probe.left.Load()

	degradedSeen := false
	for k := int64(1); k < total; k += 1 + total/24 {
		res, err := NewEngine(g, opt).Do(newCountdownCtx(k), Query{Nodes: nodes, Degrade: true})
		var de *DegradedError
		switch {
		case err == nil:
			t.Fatalf("cut at probe %d completed on a cold engine", k)
		case errors.As(err, &de):
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cut at probe %d: DegradedError does not unwrap the ctx error: %v", k, err)
			}
			if !reflect.DeepEqual(res.Context, want.Context) {
				t.Fatalf("cut at probe %d: degraded context differs from the uncut run", k)
			}
			if len(res.Characteristics) != de.Tested || de.Total != len(want.Characteristics) {
				t.Fatalf("cut at probe %d: counts %d/%d vs %d records, want total %d",
					k, de.Tested, de.Total, len(res.Characteristics), len(want.Characteristics))
			}
			for _, c := range res.Characteristics {
				full, ok := wantByName[c.Name]
				if !ok {
					t.Fatalf("cut at probe %d: degraded record %q absent from the uncut run", k, c.Name)
				}
				if !reflect.DeepEqual(c, full) {
					t.Fatalf("cut at probe %d: degraded record %q differs from the uncut run", k, c.Name)
				}
			}
			if len(res.Characteristics) > 0 {
				degradedSeen = true
			}
		case errors.Is(err, context.Canceled):
			// Cut landed before the comparison stage: all-or-nothing.
			if len(res.Characteristics) != 0 {
				t.Fatalf("cut at probe %d: bare cancellation returned characteristics", k)
			}
		default:
			t.Fatalf("cut at probe %d: unexpected err %v", k, err)
		}
	}
	if !degradedSeen {
		t.Fatal("no cut depth produced a non-empty degraded result; cut grid too coarse")
	}

	// Degraded runs never corrupt the cache: an engine scarred by degraded
	// cuts completes the same request bitwise identically.
	scarred := NewEngine(g, opt)
	for k := int64(1); k < total; k += 1 + total/8 {
		_, _ = scarred.Do(newCountdownCtx(k), Query{Nodes: nodes, Degrade: true})
	}
	got, err := scarred.Do(context.Background(), Query{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result after degraded runs differs — cache corrupted")
	}
}

// mustResolve returns the standard three-leader query for degraded-mode
// tests.
func mustResolve(t *testing.T, g *Graph, opt Options) []NodeID {
	t.Helper()
	nodes, err := NewEngine(g, opt).Resolve("Angela Merkel", "Barack Obama", "Vladimir Putin")
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

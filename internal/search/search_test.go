package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/gen"
	"repro/internal/kg"
)

func testGraph() *kg.Graph {
	b := kg.NewBuilder(16)
	for _, n := range []string{
		"Angela Merkel", "Barack Obama", "Brad Pitt", "Michelle Obama",
		"Obama Foundation", "Pittsburgh",
	} {
		b.Node(n)
	}
	b.AddEdge("Angela Merkel", "knows", "Barack Obama")
	return b.Build()
}

func TestExactMatchWinsWithScoreOne(t *testing.T) {
	idx := NewIndex(testGraph())
	hits := idx.Lookup("angela merkel", 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Name != "Angela Merkel" || hits[0].Score != 1 {
		t.Fatalf("top hit = %+v", hits[0])
	}
}

func TestTokenMatch(t *testing.T) {
	idx := NewIndex(testGraph())
	hits := idx.Lookup("obama", 5)
	if len(hits) < 2 {
		t.Fatalf("expected multiple obama hits, got %v", hits)
	}
	names := map[string]bool{}
	for _, h := range hits {
		names[h.Name] = true
	}
	if !names["Barack Obama"] || !names["Michelle Obama"] {
		t.Fatalf("hits = %v", hits)
	}
	// Two-token names outrank the three-token foundation on brevity.
	if hits[0].Name == "Obama Foundation" {
		t.Fatalf("brevity discount failed: %v", hits)
	}
}

func TestMultiTokenCoverage(t *testing.T) {
	idx := NewIndex(testGraph())
	hits := idx.Lookup("barack obama", 3)
	if len(hits) == 0 || hits[0].Name != "Barack Obama" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestNoMatch(t *testing.T) {
	idx := NewIndex(testGraph())
	if hits := idx.Lookup("zzz unknown", 5); len(hits) != 0 {
		t.Fatalf("unexpected hits: %v", hits)
	}
	if hits := idx.Lookup("", 5); len(hits) != 0 {
		t.Fatalf("empty mention hits: %v", hits)
	}
	if hits := idx.Lookup("obama", 0); hits != nil {
		t.Fatal("limit 0 should return nil")
	}
}

func TestLimit(t *testing.T) {
	idx := NewIndex(testGraph())
	if hits := idx.Lookup("obama", 1); len(hits) != 1 {
		t.Fatalf("limit ignored: %v", hits)
	}
}

func TestResolve(t *testing.T) {
	g := testGraph()
	idx := NewIndex(g)
	ids, missing := idx.Resolve([]string{"Angela Merkel", "brad pitt", "nobody here"})
	if len(ids) != 2 {
		t.Fatalf("resolved %d ids", len(ids))
	}
	if len(missing) != 1 || missing[0] != "nobody here" {
		t.Fatalf("missing = %v", missing)
	}
	if g.NodeName(ids[1]) != "Brad Pitt" {
		t.Fatalf("second id = %s", g.NodeName(ids[1]))
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("Jean-Claude Van Damme (actor)")
	want := []string{"jean", "claude", "van", "damme", "actor"}
	if len(toks) != len(want) {
		t.Fatalf("Tokenize = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", toks, want)
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	idx := NewIndex(testGraph())
	a := idx.Lookup("obama", 5)
	b := idx.Lookup("obama", 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("lookup not deterministic")
		}
	}
}

// refLookup is Lookup as it stood before the exact-hit short-circuit and
// the lock, kept verbatim as the reference the served path must equal on
// every mention without a repeated token (it counts a repeat again; see
// TestLookupRepeatedMentionTokens).
func refLookup(idx *Index, mention string, limit int) []Hit {
	if limit <= 0 {
		return nil
	}
	var hits []Hit
	lower := strings.ToLower(strings.TrimSpace(mention))
	if id, ok := idx.exact[lower]; ok {
		hits = append(hits, Hit{Node: id, Name: idx.g.NodeName(id), Score: 1})
	}
	tokens := Tokenize(mention)
	if len(tokens) > 0 {
		matched := make(map[kg.NodeID]int)
		for _, tok := range tokens {
			for _, id := range idx.byToken[tok] {
				matched[id]++
			}
		}
		for id, n := range matched {
			if len(hits) > 0 && hits[0].Node == id {
				continue // already present as the exact match
			}
			nameTokens := idx.tokenCount[id]
			coverage := float64(n) / float64(len(tokens))
			brevity := float64(n) / float64(nameTokens)
			hits = append(hits, Hit{
				Node:  id,
				Name:  idx.g.NodeName(id),
				Score: 0.9 * coverage * (0.5 + 0.5*brevity),
			})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Name < hits[j].Name
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// TestLookupRepeatedMentionTokens: a mention repeating a token ranks as
// its distinct tokens do. Every fuzzy score stays at most 0.9, so the
// exact hit leads, and the first hit at any limit is Lookup(m, 1)'s, which
// Resolve takes.
func TestLookupRepeatedMentionTokens(t *testing.T) {
	b := kg.NewBuilder(16)
	for _, n := range []string{"foo foo", "Foo", "Angela Merkel", "Merkel Foo Bar"} {
		b.Node(n)
	}
	idx := NewIndex(b.Build())
	for _, m := range []string{"foo foo", "Foo FOO foo", "merkel merkel merkel", "angela merkel angela", "foo merkel foo"} {
		hits := idx.Lookup(m, 10)
		if len(hits) == 0 {
			t.Fatalf("Lookup(%q) found nothing", m)
		}
		for _, h := range hits {
			if exact := strings.EqualFold(h.Name, strings.TrimSpace(m)); !exact && h.Score > 0.9 {
				t.Fatalf("Lookup(%q): fuzzy hit %+v scores above 0.9", m, h)
			}
		}
		first := idx.Lookup(m, 1)
		for _, k := range []int{2, 5, 10} {
			if got := idx.Lookup(m, k); got[0] != first[0] {
				t.Fatalf("Lookup(%q, %d)[0] = %+v, Lookup(%q, 1)[0] = %+v", m, k, got[0], m, first[0])
			}
		}
		if ids, _ := idx.Resolve([]string{m}); ids[0] != hits[0].Node {
			t.Fatalf("Resolve(%q) = %d, Lookup's first hit %+v", m, ids[0], hits[0])
		}
	}
	if h := idx.Lookup("foo foo", 2); h[0].Name != "foo foo" || h[0].Score != 1 || h[1].Score != 0.9 {
		t.Fatalf(`Lookup("foo foo", 2) = %v, want the exact hit at 1, then "Foo" at 0.9`, h)
	}
}

// refNewIndex is NewIndex as it stood before Extend: one pass over every
// node with a per-name token set.
func refNewIndex(g *kg.Graph) *Index {
	idx := &Index{
		g:          g,
		byToken:    make(map[string][]kg.NodeID),
		exact:      make(map[string]kg.NodeID, g.NumNodes()),
		tokenCount: make([]int, g.NumNodes()),
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := kg.NodeID(n)
		name := g.NodeName(id)
		idx.exact[strings.ToLower(name)] = id
		toks := Tokenize(name)
		idx.tokenCount[n] = len(toks)
		seen := map[string]bool{}
		for _, tok := range toks {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			idx.byToken[tok] = append(idx.byToken[tok], id)
		}
	}
	return idx
}

// gSmall is the benchmark's G_small (7 364 nodes), built once per test
// binary.
var gSmall = sync.OnceValue(func() *kg.Graph {
	return gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph
})

// mentionVariants spells one node name the ways a request might: as is,
// case-flipped and space-padded (all three exact hits), truncated and
// token-reversed (fuzzy only).
func mentionVariants(name string) []string {
	flip := strings.Map(func(r rune) rune {
		if unicode.IsUpper(r) {
			return unicode.ToLower(r)
		}
		return unicode.ToUpper(r)
	}, name)
	toks := strings.Fields(name)
	for i, j := 0, len(toks)-1; i < j; i, j = i+1, j-1 {
		toks[i], toks[j] = toks[j], toks[i]
	}
	return []string{name, flip, "  " + name + "\t ", name[:len(name)-1], strings.Join(toks, " ")}
}

// TestLookupMatchesReference holds Lookup and Resolve to refLookup on
// G_small, each sampled name in five spellings at limits 1, 3 and 1000.
// The sample is a third of the Actor nodes (the names the benchmark
// queries) plus a stride over all nodes: one reference ranking of a
// "Person NNNNN" name scores 5 574 postings and costs 2.6 ms, so the
// sweep cannot be exhaustive and stay a unit test.
func TestLookupMatchesReference(t *testing.T) {
	g := gSmall()
	idx := NewIndex(g)
	var names []string
	for n := 0; n < g.NumNodes(); n++ {
		if name := g.NodeName(kg.NodeID(n)); (strings.HasPrefix(name, "Actor ") && n%3 == 0) || n%997 == 0 {
			names = append(names, name)
		}
	}
	if len(names) < 100 {
		t.Fatalf("only %d sampled names", len(names))
	}
	for _, name := range names {
		mentions := mentionVariants(name)
		var wantIDs []kg.NodeID
		var wantMissing []string
		for _, m := range mentions {
			for _, limit := range []int{1, 3, 1000} {
				got, want := idx.Lookup(m, limit), refLookup(idx, m, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Lookup(%q, %d) = %v, reference %v", m, limit, got, want)
				}
				if limit != 1 {
					continue
				}
				if len(want) == 0 {
					wantMissing = append(wantMissing, m)
				} else {
					wantIDs = append(wantIDs, want[0].Node)
				}
			}
		}
		ids, missing := idx.Resolve(mentions)
		if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(missing, wantMissing) {
			t.Fatalf("Resolve(%q) = %v, %v; reference %v, %v", mentions, ids, missing, wantIDs, wantMissing)
		}
	}
}

// sameIndex fails unless two indexes agree field by field: the exact
// map, every posting list in order, and the token counts.
func sameIndex(t *testing.T, what string, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.exact, want.exact) {
		t.Fatalf("%s: exact maps differ", what)
	}
	if !reflect.DeepEqual(got.byToken, want.byToken) {
		t.Fatalf("%s: postings differ", what)
	}
	if !reflect.DeepEqual(got.tokenCount, want.tokenCount) {
		t.Fatalf("%s: token counts differ", what)
	}
}

// ingestViews publishes a seeded ingest sequence over testGraph: batches
// that add plain new nodes, names equal to an indexed one up to case
// (the exact entry must go to the later ID), names repeating a token,
// names with no token at all, and batches that add no node.
func ingestViews(seed int64, steps int) []*kg.Graph {
	rng := rand.New(rand.NewSource(seed))
	vg := kg.NewVersioned(testGraph(), kg.VersionedOptions{CompactThreshold: -1})
	graphs := []*kg.Graph{vg.View().G}
	for step := 0; step < steps; step++ {
		cur := vg.View().G
		old := func() string { return cur.NodeName(kg.NodeID(rng.Intn(cur.NumNodes()))) }
		var adds []kg.Triple
		for i := rng.Intn(4); i >= 0; i-- {
			var name string
			switch rng.Intn(6) {
			case 0:
				name = strings.ToUpper(old())
			case 1:
				name = strings.ToLower(old())
			case 2:
				name = fmt.Sprintf("New York New York %d new", rng.Intn(8))
			case 3:
				name = strings.Repeat("?", 1+rng.Intn(3)) + strings.Repeat("-", rng.Intn(3))
			case 4:
				name = old() // no new node
			default:
				name = fmt.Sprintf("Film %d of %d", step, rng.Intn(1000))
			}
			adds = append(adds, kg.Triple{S: old(), P: "linked", O: name})
		}
		var dels []kg.Triple
		if rng.Intn(3) == 0 {
			dels = append(dels, kg.Triple{S: "Angela Merkel", P: "knows", O: "Barack Obama"})
		}
		view, err := vg.Apply(adds, dels)
		if err != nil {
			panic(err)
		}
		graphs = append(graphs, view.G)
		if step%7 == 6 {
			graphs = append(graphs, vg.Compact().G)
		}
	}
	return graphs
}

// TestExtendMatchesRebuild: an index extended epoch by epoch — through
// overlay and compacted graphs, node-free batches included — equals both
// NewIndex and the pre-Extend constructor on each epoch's graph.
func TestExtendMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		graphs := ingestViews(seed, 40)
		idx := NewIndex(graphs[0])
		for ep, g := range graphs {
			idx.Extend(g)
			what := fmt.Sprintf("seed %d view %d", seed, ep)
			if idx.NumNodes() != g.NumNodes() {
				t.Fatalf("%s: index covers %d of %d nodes", what, idx.NumNodes(), g.NumNodes())
			}
			sameIndex(t, what+" vs NewIndex", idx, NewIndex(g))
			sameIndex(t, what+" vs reference", idx, refNewIndex(g))
		}
		last := graphs[len(graphs)-1]
		if last.NumNodes() <= graphs[0].NumNodes()+20 {
			t.Fatalf("seed %d: sequence added only %d nodes", seed, last.NumNodes()-graphs[0].NumNodes())
		}
		// Callers racing with different epochs converge on the longest: an
		// older graph is a no-op, and skipping epochs changes nothing.
		idx.Extend(graphs[1])
		sameIndex(t, "after a stale Extend", idx, refNewIndex(last))
		skip := NewIndex(graphs[0])
		skip.Extend(last)
		sameIndex(t, "after one skipping Extend", skip, refNewIndex(last))
	}
}

// TestResolveDuringExtend races readers against two Extend callers
// walking the same epochs (run under -race in CI): a name indexed from
// the start resolves to the same node throughout, and a name an epoch
// adds is either still missing or already its node — never a torn index.
func TestResolveDuringExtend(t *testing.T) {
	graphs := ingestViews(9, 60)
	last := graphs[len(graphs)-1]
	final := refNewIndex(last)
	idx := NewIndex(graphs[0])
	newest := last.NodeName(kg.NodeID(last.NumNodes() - 1))

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				full := idx.NumNodes() == last.NumNodes() // before Resolve: the index only grows
				ids, missing := idx.Resolve([]string{"Angela Merkel", newest})
				// (An epoch may add "ANGELA MERKEL": last writer wins.)
				if len(ids) == 0 || !strings.EqualFold(last.NodeName(ids[0]), "Angela Merkel") {
					t.Errorf("base name resolved to %v (missing %v)", ids, missing)
					return
				}
				if full && (len(ids) != 2 || ids[1] != final.exact[strings.ToLower(newest)]) {
					t.Errorf("%q resolved to %v on the full index", newest, ids)
					return
				}
				idx.Lookup("obama", 3)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := range graphs {
				if w == 1 {
					i = len(graphs) - 1 - i // newest first: every later call is stale
				}
				idx.Extend(graphs[i])
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	sameIndex(t, "after concurrent Extend", idx, final)
	for _, m := range []string{newest, "obama", "new york"} {
		if got, want := idx.Lookup(m, 5), refLookup(final, m, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%q) after concurrent Extend = %v, reference %v", m, got, want)
		}
	}
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	sinkIDs  []kg.NodeID
	sinkHits []Hit
	sinkIdx  *Index
)

// BenchmarkResolveExact is the served front door: the three exact actor
// names of one benchmark request, on G_small.
func BenchmarkResolveExact(b *testing.B) {
	idx := NewIndex(gSmall())
	names := []string{"Actor 0017", "Actor 0203", "Actor 0311"}
	if _, missing := idx.Resolve(names); len(missing) > 0 {
		b.Fatalf("missing %v", missing)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs, _ = idx.Resolve(names)
	}
}

// BenchmarkLookupFuzzy pins the ranking path the short-circuit leaves
// alone: the same actor name with suggestions, all 454 "actor" postings
// scored and sorted.
func BenchmarkLookupFuzzy(b *testing.B) {
	idx := NewIndex(gSmall())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHits = idx.Lookup("Actor 0203", 5)
	}
}

// BenchmarkIndexExtend is one ingest batch's index work — six new nodes
// onto the 7 364-node index — beside the rebuild it replaced. The extend
// case walks a chain of 256 epochs and starts over on a fresh index
// (untimed) when the chain runs out.
func BenchmarkIndexExtend(b *testing.B) {
	vg := kg.NewVersioned(gSmall(), kg.VersionedOptions{CompactThreshold: -1})
	graphs := make([]*kg.Graph, 256)
	for i := range graphs {
		adds := make([]kg.Triple, 6)
		for j := range adds {
			adds[j] = kg.Triple{S: "Actor 0017", P: "actedIn", O: fmt.Sprintf("bench:film-%d-%d", i, j)}
		}
		view, err := vg.Apply(adds, nil)
		if err != nil {
			b.Fatal(err)
		}
		graphs[i] = view.G
	}
	b.Run("extend", func(b *testing.B) {
		var idx *Index
		for i := 0; i < b.N; i++ {
			if i%len(graphs) == 0 {
				b.StopTimer()
				idx = NewIndex(gSmall())
				b.StartTimer()
			}
			idx.Extend(graphs[i%len(graphs)])
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkIdx = NewIndex(graphs[0])
		}
	})
}

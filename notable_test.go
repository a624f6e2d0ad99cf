package notable

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// buildLeaders creates a small end-to-end graph through the public API.
func buildLeaders() *Graph {
	b := NewBuilder(128)
	leaders := []string{"Angela Merkel", "Barack Obama", "Vladimir Putin",
		"Matteo Renzi", "François Hollande", "David Cameron", "Xi Jinping",
		"Justin Trudeau", "Shinzo Abe", "Dilma Rousseff"}
	for i, l := range leaders {
		b.SetType(l, "politician")
		b.AddEdge(l, "memberOf", "G20")
		b.AddEdge(l, "attended", "Summit")
		for d := 1; d <= 3; d++ {
			b.AddEdge(l, "met", leaders[(i+d)%len(leaders)])
		}
		if l == "Angela Merkel" {
			b.AddEdge(l, "studied", "Physics")
			continue
		}
		b.AddEdge(l, "studied", "Law")
		b.AddEdge(l, "hasChild", "Child of "+l)
	}
	return b.Build()
}

func TestEngineSearchNames(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{ContextSize: 8, Walks: 30000, Seed: 3})
	res, err := doNames(e, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Context) == 0 {
		t.Fatal("no context")
	}
	notables := res.NotableOnly()
	found := map[string]bool{}
	for _, c := range notables {
		found[c.Name] = true
	}
	if !found["hasChild"] && !found["studied"] {
		t.Fatalf("expected hasChild or studied notable, got %v", found)
	}
}

func TestEngineResolveErrors(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	if _, err := doNames(e, "No Such Person Anywhere"); err == nil {
		t.Fatal("unresolvable entity should error")
	}
	if _, err := e.Do(context.Background(), Query{}); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestEngineSuggest(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{})
	hits := e.Suggest("merkel", 3)
	if len(hits) == 0 || !strings.Contains(hits[0].Name, "Merkel") {
		t.Fatalf("Suggest = %v", hits)
	}
}

func TestEngineSelectors(t *testing.T) {
	g := buildLeaders()
	query, err := NewEngine(g, Options{}).Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []string{SelectorContextRW, SelectorRandomWalk, SelectorSimRank, SelectorJaccard} {
		e := NewEngine(g, Options{Selector: sel, ContextSize: 5, Walks: 10000, Seed: 2})
		ctx := e.Context(query, 5)
		if len(ctx) == 0 {
			t.Fatalf("selector %s returned empty context", sel)
		}
	}
}

// TestEngineCompare: every entry point — Do, DoBatch and DoStream —
// reports characteristics and leaves the auto-generated inverse labels
// (l⁻¹) out of them.
func TestEngineCompare(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{Seed: 5})
	query, _ := e.Resolve("Angela Merkel", "Barack Obama")
	ctx := context.Background()
	check := func(how string, res Result) {
		t.Helper()
		if len(res.Characteristics) == 0 {
			t.Fatalf("%s: no characteristics", how)
		}
		for _, c := range res.Characteristics {
			if strings.HasSuffix(c.Name, "⁻¹") {
				t.Fatalf("%s: inverse label %s leaked into default report", how, c.Name)
			}
		}
	}
	res, err := e.Do(ctx, Query{Nodes: query})
	if err != nil {
		t.Fatal(err)
	}
	check("Do", res)
	qs := []Query{{Nodes: query, ContextSize: 5}, {Nodes: query, Policy: PolicyPooled}}
	batch, err := e.DoBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		check(fmt.Sprintf("DoBatch[%d]", i), res)
	}
	for o := range e.DoStream(ctx, qs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		check(fmt.Sprintf("DoStream[%d]", o.Index), o.Result)
	}
}

func TestEnginePolicyOption(t *testing.T) {
	g := buildLeaders()
	e := NewEngine(g, Options{Policy: PolicyPooled, Seed: 5})
	query, _ := e.Resolve("Angela Merkel", "Barack Obama")
	if res, err := e.Do(context.Background(), Query{Nodes: query}); err != nil || len(res.Characteristics) == 0 {
		t.Fatalf("pooled policy search failed: %d records, err %v", len(res.Characteristics), err)
	}
}

func TestLoadGraphFromTriples(t *testing.T) {
	input := strings.NewReader(
		"Angela Merkel\tstudied\tPhysics\n" +
			"Angela Merkel\ttype\tpolitician\n" +
			"Barack Obama\tstudied\tLaw\n")
	g, err := LoadGraph(input, "type")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty graph")
	}
	merkel, ok := g.NodeByName("Angela Merkel")
	if !ok {
		t.Fatal("Merkel missing")
	}
	if g.TypeName(g.TypeOf(merkel)) != "politician" {
		t.Fatal("type predicate not honored")
	}
}

func TestLoadGraphParseError(t *testing.T) {
	if _, err := LoadGraph(strings.NewReader("only\ttwo\n"), ""); err == nil {
		t.Fatal("malformed triples should error")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	g := buildLeaders()
	path := filepath.Join(t.TempDir(), "graph.kgsnap")
	if err := SaveSnapshotFile(g, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %s vs %s", got.Stats(), g.Stats())
	}
}

func TestLoadGraphFileTriples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "triples.tsv")
	data := "a\tp\tb\nb\tp\tc\n"
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if _, err := LoadGraphFile(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Fatal("missing file should error")
	}
}

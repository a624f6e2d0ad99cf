package notable

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/corr"
	"repro/internal/gen"
	"repro/internal/ntriples"
	"repro/internal/stats"
)

// Integration tests: full pipeline runs over the generated datasets
// through the public API.

func TestIntegrationPoliticians(t *testing.T) {
	ds := gen.YAGOLike(gen.YAGOConfig{Seed: 21, Scale: 0.5})
	engine := NewEngine(ds.Graph, Options{
		ContextSize: 60,
		Walks:       60000,
		Seed:        21,
	})
	res, err := doNames(engine, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Context) == 0 {
		t.Fatal("no context")
	}
	// The planted Merkel facts must surface.
	notable := map[string]bool{}
	for _, c := range res.NotableOnly() {
		notable[c.Name] = true
	}
	for _, want := range []string{"hasChild", "studied", "hasDoctorate"} {
		if !notable[want] {
			t.Errorf("%s not notable; notable set: %v", want, notable)
		}
	}
	// Party membership is ordinary among politicians.
	if c, ok := res.ByName("memberOfParty"); ok && c.Notable() {
		t.Errorf("memberOfParty should not be notable: P inst=%v card=%v", c.InstP, c.CardP)
	}
}

func TestIntegrationMoviesLMDB(t *testing.T) {
	ds := gen.LinkedMDBLike(gen.LMDBConfig{Seed: 22, Scale: 0.5})
	engine := NewEngine(ds.Graph, Options{ContextSize: 50, Walks: 60000, Seed: 22})
	sc := ds.Scenario("actors")
	res, err := doNames(engine, sc.Query[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	// Context should be dominated by actors (typed nodes), not films.
	actors := 0
	for _, id := range res.ContextIDs() {
		if ds.Graph.TypeName(ds.Graph.TypeOf(id)) == "actor" {
			actors++
		}
	}
	if actors < len(res.Context)/2 {
		t.Fatalf("only %d of %d context nodes are actors", actors, len(res.Context))
	}
}

func TestIntegrationProducts(t *testing.T) {
	ds := gen.Products(23)
	engine := NewEngine(ds.Graph, Options{ContextSize: 30, Walks: 40000, Seed: 23})
	res, err := engine.Do(context.Background(), Query{Nodes: ds.Query})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := res.ByName("hasFeature")
	if !ok {
		t.Fatal("hasFeature not tested")
	}
	if !c.Notable() {
		t.Fatalf("hasFeature should be notable: P inst=%v card=%v", c.InstP, c.CardP)
	}
	for _, name := range []string{"brand", "mount"} {
		if ch, ok := res.ByName(name); ok && ch.Notable() {
			t.Errorf("%s should not be notable", name)
		}
	}
}

func TestIntegrationAuthorsPooled(t *testing.T) {
	ds := gen.Authors(24)
	engine := NewEngine(ds.Graph, Options{
		ContextSize: 30,
		Walks:       50000,
		Seed:        24,
		Policy:      PolicyPooled,
	})
	res, err := engine.Do(context.Background(), Query{Nodes: ds.Query})
	if err != nil {
		t.Fatal(err)
	}
	infl, ok := res.ByName("influences")
	if !ok || !infl.Notable() {
		t.Fatalf("influences should be notable: %+v", infl)
	}
	created, ok := res.ByName("created")
	if !ok {
		t.Fatal("created not tested")
	}
	if created.Notable() {
		t.Fatalf("created should not be notable under pooled policy: P inst=%v card=%v",
			created.InstP, created.CardP)
	}
}

func TestIntegrationCorrelationExtension(t *testing.T) {
	ds := gen.YAGOLike(gen.YAGOConfig{Seed: 25, Scale: 0.5})
	engine := NewEngine(ds.Graph, Options{ContextSize: 60, Walks: 60000, Seed: 25})
	res, err := doNames(engine, "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Graph.LabelsOf(append(res.Query, res.ContextIDs()...))
	pairs := corr.Find(ds.Graph, res.Query, res.ContextIDs(), labels, corr.Options{
		Test: stats.Multinomial{Seed: 25},
	})
	if len(pairs) == 0 {
		t.Fatal("correlation scan found no pairs at all")
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Score > pairs[i-1].Score {
			t.Fatal("pairs unsorted")
		}
	}
}

func TestIntegrationSnapshotPreservesResults(t *testing.T) {
	// A search on a snapshot-round-tripped graph returns identical
	// characteristics.
	ds := gen.YAGOLike(gen.YAGOConfig{Seed: 26, Scale: 0.3})
	var buf bytes.Buffer
	if err := ds.Graph.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{ContextSize: 30, Walks: 30000, Seed: 26}
	a, err := doNames(NewEngine(ds.Graph, opt), "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	b, err := doNames(NewEngine(restored, opt), "Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Characteristics) != len(b.Characteristics) {
		t.Fatalf("characteristic counts differ: %d vs %d",
			len(a.Characteristics), len(b.Characteristics))
	}
	for i := range a.Characteristics {
		ca, cb := a.Characteristics[i], b.Characteristics[i]
		if ca.Name != cb.Name || ca.Score != cb.Score {
			t.Fatalf("characteristic %d differs: %s/%v vs %s/%v",
				i, ca.Name, ca.Score, cb.Name, cb.Score)
		}
	}
}

func TestIntegrationTripleExportImport(t *testing.T) {
	// Figure 1 exported as triples and loaded back with LoadGraph (which
	// renumbers it) still yields the figure's outcome.
	ds := gen.Figure1()
	g, err := LoadGraph(bytes.NewReader(dumpTriples(ds.Graph, ntriples.FormatTSV)), "type")
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(g, Options{ContextSize: 3, Walks: 20000, Seed: 27})
	query, err := engine.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Do(context.Background(), Query{Nodes: query})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, 2)
	for _, c := range res.NotableOnly() {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "hasChild") || !strings.Contains(joined, "studied") {
		t.Fatalf("Figure 1 notables = %v, want hasChild and studied", names)
	}
	// And the context is exactly the figure's three leaders.
	want := map[string]bool{}
	for _, c := range ds.Context {
		want[ds.Graph.NodeName(c)] = true
	}
	for _, id := range res.ContextIDs() {
		if !want[g.NodeName(id)] {
			t.Fatalf("unexpected context node %s", g.NodeName(id))
		}
	}
}

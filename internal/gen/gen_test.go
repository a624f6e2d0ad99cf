package gen

import (
	"strings"
	"testing"

	"repro/internal/kg"
)

func smallYAGO(t *testing.T) *Dataset {
	t.Helper()
	return YAGOLike(YAGOConfig{Seed: 1, Scale: 0.25})
}

func TestYAGOLikeBasicShape(t *testing.T) {
	d := smallYAGO(t)
	g := d.Graph
	if g.NumNodes() < 500 {
		t.Fatalf("graph too small: %s", g.Stats())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	for _, domain := range []string{"actors", "politicians", "contributors"} {
		if _, ok := d.Scenarios[domain]; !ok {
			t.Fatalf("scenario %s missing", domain)
		}
	}
}

func TestYAGOLikeQueryEntitiesPresent(t *testing.T) {
	d := smallYAGO(t)
	for domain, names := range Table1 {
		for _, n := range names {
			if _, ok := d.Graph.NodeByName(n); !ok {
				t.Fatalf("%s query entity %q missing from graph", domain, n)
			}
		}
	}
}

func TestYAGOLikeDeterministic(t *testing.T) {
	a := YAGOLike(YAGOConfig{Seed: 7, Scale: 0.1})
	b := YAGOLike(YAGOConfig{Seed: 7, Scale: 0.1})
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("same seed, different graphs: %s vs %s", a.Graph.Stats(), b.Graph.Stats())
	}
	// Node names must agree position by position.
	for i := 0; i < a.Graph.NumNodes(); i += 97 {
		if a.Graph.NodeName(kg.NodeID(i)) != b.Graph.NodeName(kg.NodeID(i)) {
			t.Fatalf("node %d differs between runs", i)
		}
	}
	c := YAGOLike(YAGOConfig{Seed: 8, Scale: 0.1})
	if c.Graph.NumEdges() == a.Graph.NumEdges() && c.Graph.NumNodes() == a.Graph.NumNodes() {
		t.Log("different seeds produced same sizes (possible but unlikely)")
	}
}

func TestYAGOLikeGroundTruthSizes(t *testing.T) {
	d := YAGOLike(YAGOConfig{Seed: 3}) // full scale: GT sizes must be 36–76
	for domain, sc := range d.Scenarios {
		for size := 2; size <= 6; size++ {
			gt := sc.GroundTruth[size]
			if len(gt) < 36 || len(gt) > 76 {
				t.Fatalf("%s |Q|=%d: ground truth size %d outside 36–76", domain, size, len(gt))
			}
			ids := sc.GroundTruthIDs(d.Graph, size)
			if len(ids) < len(gt)*9/10 {
				t.Fatalf("%s |Q|=%d: only %d of %d ground-truth names resolve", domain, size, len(ids), len(gt))
			}
			for _, q := range sc.Query {
				qid, _ := d.Graph.NodeByName(q)
				if ids[qid] {
					t.Fatalf("%s: query entity %s inside ground truth", domain, q)
				}
			}
		}
	}
}

func TestYAGOLikeMerkelFacts(t *testing.T) {
	d := smallYAGO(t)
	g := d.Graph
	merkel, ok := g.NodeByName("Angela Merkel")
	if !ok {
		t.Fatal("Merkel missing")
	}
	hasChild, _ := g.LabelByName("hasChild")
	if n := len(g.OutEdgesByLabel(merkel, hasChild)); n != 0 {
		t.Fatalf("Merkel has %d children, want 0", n)
	}
	studied, _ := g.LabelByName("studied")
	edges := g.OutEdgesByLabel(merkel, studied)
	if len(edges) != 1 || g.NodeName(edges[0].To) != "Physics" {
		t.Fatal("Merkel should have studied Physics")
	}
	doc, ok := g.LabelByName("hasDoctorate")
	if !ok {
		t.Fatal("hasDoctorate label missing")
	}
	if len(g.OutEdgesByLabel(merkel, doc)) != 1 {
		t.Fatal("Merkel should hold a doctorate")
	}
}

func TestYAGOLikePittFacts(t *testing.T) {
	d := smallYAGO(t)
	g := d.Graph
	pitt, _ := g.NodeByName("Brad Pitt")
	created, _ := g.LabelByName("created")
	if n := len(g.OutEdgesByLabel(pitt, created)); n != 0 {
		t.Fatalf("Pitt has %d created edges, want 0 (Figure 7)", n)
	}
	owns, ok := g.LabelByName("owns")
	if !ok {
		t.Fatal("owns label missing")
	}
	ownsEdges := g.OutEdgesByLabel(pitt, owns)
	if len(ownsEdges) != 1 || g.NodeName(ownsEdges[0].To) != "Plan B Entertainment" {
		t.Fatal("Pitt should own Plan B Entertainment")
	}
	// The other query actors all created something distinct.
	for _, name := range Table1["actors"][1:] {
		id, _ := g.NodeByName(name)
		if len(g.OutEdgesByLabel(id, created)) == 0 {
			t.Fatalf("%s should have a created edge", name)
		}
	}
}

func TestScenarioQueryIDs(t *testing.T) {
	d := smallYAGO(t)
	sc := d.Scenario("actors")
	ids, err := sc.QueryIDs(d.Graph, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("QueryIDs(3) = %d ids", len(ids))
	}
	if _, err := sc.QueryIDs(d.Graph, 9); err == nil {
		t.Fatal("oversized query should error")
	}
	if _, err := sc.QueryIDs(d.Graph, 0); err == nil {
		t.Fatal("zero query should error")
	}
}

func TestLinkedMDBLike(t *testing.T) {
	d := LinkedMDBLike(LMDBConfig{Seed: 2, Scale: 0.25})
	if d.Name != "linkedmdb-like" {
		t.Fatalf("Name = %q", d.Name)
	}
	if _, ok := d.Scenarios["actors"]; !ok {
		t.Fatal("actors scenario missing")
	}
	// Movie-domain only: no politicians.
	if _, ok := d.Graph.NodeByName("Angela Merkel"); ok {
		t.Fatal("politicians should not exist in LinkedMDB-like data")
	}
	pitt, ok := d.Graph.NodeByName("Brad Pitt")
	if !ok {
		t.Fatal("Pitt missing")
	}
	performedIn, ok := d.Graph.LabelByName("performedIn")
	if !ok {
		t.Fatal("performedIn label missing")
	}
	if len(d.Graph.OutEdgesByLabel(pitt, performedIn)) == 0 {
		t.Fatal("Pitt has no performances")
	}
}

func TestAuthorsScenario(t *testing.T) {
	ds := Authors(5)
	g := ds.Graph
	if len(ds.Query) != 2 {
		t.Fatalf("query size %d", len(ds.Query))
	}
	// The paper's numbers: 834 works, 3 multi-authored.
	if ds.TotalWorks != 834 {
		t.Fatalf("TotalWorks = %d, want 834", ds.TotalWorks)
	}
	if ds.CoCreated != 3 {
		t.Fatalf("CoCreated = %d, want 3", ds.CoCreated)
	}
	// Gaiman influenced by exactly 3.
	influences, _ := g.LabelByName("influences")
	inv := g.InverseLabel(influences)
	in := g.OutEdgesByLabel(ds.InfluencedAuthor, inv)
	if len(in) != 3 {
		t.Fatalf("Gaiman influenced by %d, want 3", len(in))
	}
	// Both query authors are among the influencers.
	fromQuery := 0
	for _, e := range in {
		for _, q := range ds.Query {
			if e.To == q {
				fromQuery++
			}
		}
	}
	if fromQuery != 2 {
		t.Fatalf("%d query authors influence Gaiman, want 2", fromQuery)
	}
}

func TestAuthorsWorkCount(t *testing.T) {
	ds := Authors(9)
	g := ds.Graph
	created, _ := g.LabelByName("created")
	// 834 works, 3 of which have two creators: 837 created edges.
	if got := int(g.LabelCount(created)); got != ds.TotalWorks+ds.CoCreated {
		t.Fatalf("created edges = %d, want %d", got, ds.TotalWorks+ds.CoCreated)
	}
}

func TestFigure1(t *testing.T) {
	ds := Figure1()
	g := ds.Graph
	if len(ds.Query) != 2 || len(ds.Context) != 3 {
		t.Fatalf("query/context sizes %d/%d", len(ds.Query), len(ds.Context))
	}
	merkel := ds.Query[0]
	if !strings.Contains(g.NodeName(merkel), "Merkel") {
		t.Fatalf("first query node = %s", g.NodeName(merkel))
	}
	hasChild, _ := g.LabelByName("hasChild")
	if len(g.OutEdgesByLabel(merkel, hasChild)) != 0 {
		t.Fatal("Figure 1 Merkel must be childless")
	}
	// Hollande has 4 children in the figure.
	hollande := ds.Context[2]
	if n := len(g.OutEdgesByLabel(hollande, hasChild)); n != 4 {
		t.Fatalf("Hollande children = %d, want 4", n)
	}
}

func TestProducts(t *testing.T) {
	ds := Products(4)
	g := ds.Graph
	if len(ds.Query) != 2 {
		t.Fatalf("query size %d", len(ds.Query))
	}
	hasFeature, _ := g.LabelByName("hasFeature")
	for _, q := range ds.Query {
		found := 0
		for _, e := range g.OutEdgesByLabel(q, hasFeature) {
			name := g.NodeName(e.To)
			if name == "InBodyStabilization" || name == "WeatherSealing" {
				found++
			}
		}
		if found != 2 {
			t.Fatalf("query camera %s lacks planted features", g.NodeName(q))
		}
	}
}

func TestDatasetScenarioPanics(t *testing.T) {
	d := smallYAGO(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Scenario(unknown) should panic")
		}
	}()
	d.Scenario("unknown-domain")
}

func BenchmarkYAGOLikeFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := YAGOLike(YAGOConfig{Seed: int64(i)})
		if d.Graph.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// TestNamed: every dataset name builds its generator's graph, the empty
// name is yago, and an unknown name is an error.
func TestNamed(t *testing.T) {
	for name, want := range map[string]*kg.Graph{
		"yago":     YAGOLike(YAGOConfig{Seed: 3, Scale: 0.25}).Graph,
		"":         YAGOLike(YAGOConfig{Seed: 3, Scale: 0.25}).Graph,
		"lmdb":     LinkedMDBLike(LMDBConfig{Seed: 3, Scale: 0.25}).Graph,
		"authors":  Authors(3).Graph,
		"products": Products(3).Graph,
		"figure1":  Figure1().Graph,
	} {
		g, err := Named(name, 3, 0.25)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if g.Stats() != want.Stats() {
			t.Fatalf("%q built %s, want %s", name, g.Stats(), want.Stats())
		}
	}
	if _, err := Named("yago2", 3, 1); err == nil || !strings.Contains(err.Error(), `"yago2"`) {
		t.Fatalf("unknown dataset: err = %v", err)
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/ctxsel"
	"repro/internal/kg"
	"repro/internal/stats"
)

var leaderNames = []string{"Merkel", "Obama", "Putin", "Renzi", "Hollande",
	"Rajoy", "Cameron", "Trudeau", "Abe", "Dilma", "Modi", "Nieto"}

// leadersGraph builds an enlarged Figure-1 world: a query of two leaders
// (Merkel childless with a doctorate) plus a community of peer leaders.
// Peers are densely connected to each other (met edges, shared G20/UN
// membership, shared summits) so that metapath mining can find them, and a
// distractor population of citizens shares only weak structure.
func leadersGraph() (*kg.Graph, []kg.NodeID) {
	b := kg.NewBuilder(512)
	countries := []string{"Germany", "USA", "Russia", "Italy", "France",
		"Spain", "UK", "Canada", "Japan", "Brazil", "India", "Mexico"}
	for i, leader := range leaderNames {
		b.AddEdge(leader, "leaderOf", countries[i])
		b.AddEdge(leader, "memberOf", "G20")
		b.AddEdge(leader, "memberOf", "UN")
		b.AddEdge(leader, "attended", "Summit2015")
		b.AddEdge(leader, "attended", "Summit2016")
		// Dense peer structure: each leader met the next three.
		for d := 1; d <= 3; d++ {
			b.AddEdge(leader, "met", leaderNames[(i+d)%len(leaderNames)])
		}
		if leader == "Merkel" {
			b.AddEdge(leader, "studied", "Physics")
			b.AddEdge(leader, "hasDoctorate", "PhD")
		} else {
			b.AddEdge(leader, "studied", "Law")
			for c := 0; c <= i%3; c++ {
				b.AddEdge(leader, "hasChild", fmt.Sprintf("child-%s-%d", leader, c))
			}
		}
	}
	// Distractor population: citizens connected to countries but not to
	// the leader community.
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("citizen%02d", i)
		b.AddEdge(name, "livesIn", countries[i%len(countries)])
		b.AddEdge(name, "studied", "Law")
		b.AddEdge(name, "hasChild", fmt.Sprintf("child-%s", name))
	}
	g := b.Build()
	merkel, _ := g.NodeByName("Merkel")
	obama, _ := g.NodeByName("Obama")
	return g, []kg.NodeID{merkel, obama}
}

// peerContext returns the ten non-query leaders — the "ideal" context a
// perfect selector would return.
func peerContext(g *kg.Graph) []kg.NodeID {
	var out []kg.NodeID
	for _, name := range leaderNames[2:] {
		id, ok := g.NodeByName(name)
		if !ok {
			panic("missing " + name)
		}
		out = append(out, id)
	}
	return out
}

func TestFindNCSelectsLeaderContext(t *testing.T) {
	g, query := leadersGraph()
	res := findNC(t, g, query, Options{
		Selector:    ctxsel.ContextRW{Walks: 60000, Seed: 11},
		ContextSize: 10,
		Seed:        11,
	})
	if len(res.Context) == 0 {
		t.Fatal("no context selected")
	}
	isLeader := make(map[kg.NodeID]bool)
	for _, name := range leaderNames {
		id, _ := g.NodeByName(name)
		isLeader[id] = true
	}
	leaders := 0
	for _, id := range res.ContextIDs() {
		if isLeader[id] {
			leaders++
		}
	}
	if leaders < len(res.Context)/2 {
		names := make([]string, 0, len(res.Context))
		for _, id := range res.ContextIDs() {
			names = append(names, g.NodeName(id))
		}
		t.Fatalf("only %d of %d context nodes are leaders: %v", leaders, len(res.Context), names)
	}
}

// The explicit-context tests below decouple the Section 3.2 stage from
// selector quality, using the ideal peer context.

func compareWithPeers(t *testing.T) (*kg.Graph, []Characteristic) {
	t.Helper()
	g, query := leadersGraph()
	chars := compareSets(t, g, query, peerContext(g), Options{Seed: 7})
	if len(chars) == 0 {
		t.Fatal("no characteristics tested")
	}
	return g, chars
}

func byName(t *testing.T, chars []Characteristic, name string) Characteristic {
	t.Helper()
	for _, c := range chars {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("label %s not tested", name)
	return Characteristic{}
}

func TestMerkelHasNoChildIsNotable(t *testing.T) {
	_, chars := compareWithPeers(t)
	c := byName(t, chars, "hasChild")
	if !c.Notable() {
		t.Fatalf("hasChild not notable: instP=%v cardP=%v", c.InstP, c.CardP)
	}
	// Merkel's zero children is impossible under the context cardinality
	// distribution (every peer has at least one child).
	if c.CardP > 0.05 {
		t.Fatalf("hasChild cardinality P = %v, want ≤ 0.05", c.CardP)
	}
}

func TestMerkelDoctorateIsNotable(t *testing.T) {
	_, chars := compareWithPeers(t)
	c := byName(t, chars, "hasDoctorate")
	if !c.Notable() {
		t.Fatalf("hasDoctorate not notable: instP=%v cardP=%v", c.InstP, c.CardP)
	}
	if c.Score <= 0.9 {
		t.Fatalf("hasDoctorate score = %v, want > 0.9", c.Score)
	}
}

func TestMerkelStudiedPhysicsIsNotable(t *testing.T) {
	// The paper's Figure-1 walkthrough: studied deviates because Merkel
	// studied Physics while the context studied Law.
	_, chars := compareWithPeers(t)
	c := byName(t, chars, "studied")
	if !c.Notable() {
		t.Fatalf("studied not notable: instP=%v cardP=%v", c.InstP, c.CardP)
	}
}

func TestSharedLabelsNotNotable(t *testing.T) {
	_, chars := compareWithPeers(t)
	for _, name := range []string{"memberOf", "attended"} {
		c := byName(t, chars, name)
		if c.Notable() {
			t.Fatalf("%s should not be notable: score=%v instP=%v cardP=%v",
				name, c.Score, c.InstP, c.CardP)
		}
	}
}

func TestResultsSortedByScore(t *testing.T) {
	_, chars := compareWithPeers(t)
	for i := 1; i < len(chars); i++ {
		if chars[i].Score > chars[i-1].Score {
			t.Fatal("characteristics not sorted by descending score")
		}
	}
}

func TestNotableOnlyConsistent(t *testing.T) {
	g, query := leadersGraph()
	res := findNC(t, g, query, Options{
		Selector:    ctxsel.ContextRW{Walks: 30000, Seed: 11},
		ContextSize: 10,
		Seed:        11,
	})
	notable := res.NotableOnly()
	for _, c := range notable {
		if c.Score <= 0 {
			t.Fatal("NotableOnly returned non-notable characteristic")
		}
	}
	total := 0
	for _, c := range res.Characteristics {
		if c.Notable() {
			total++
		}
	}
	if total != len(notable) {
		t.Fatalf("NotableOnly len = %d, want %d", len(notable), total)
	}
	if len(res.Characteristics) > 0 {
		if _, ok := res.ByName(res.Characteristics[0].Name); !ok {
			t.Fatal("ByName failed for an existing label")
		}
	}
}

func TestSkipInverse(t *testing.T) {
	g, query := leadersGraph()
	chars := compareSets(t, g, query, peerContext(g), Options{SkipInverse: true, Seed: 7})
	for _, c := range chars {
		if g.IsInverse(c.Label) {
			t.Fatalf("inverse label %s in report despite SkipInverse", c.Name)
		}
	}
	// Without the flag, inverse labels (e.g. met⁻¹) are present.
	all := compareSets(t, g, query, peerContext(g), Options{Seed: 7})
	if len(all) <= len(chars) {
		t.Fatal("SkipInverse did not reduce the label set")
	}
}

func TestCharacteristicRecordConsistency(t *testing.T) {
	_, chars := compareWithPeers(t)
	for _, ch := range chars {
		if ch.Name == "" {
			t.Fatal("characteristic without name")
		}
		if ch.InstP < 0 || ch.InstP > 1 || ch.CardP < 0 || ch.CardP > 1 {
			t.Fatalf("%s: p-values out of range: %v %v", ch.Name, ch.InstP, ch.CardP)
		}
		if ch.Score != ch.InstScore && ch.Score != ch.CardScore {
			t.Fatalf("%s: score %v matches neither inst %v nor card %v",
				ch.Name, ch.Score, ch.InstScore, ch.CardScore)
		}
		wantKind := KindInstance
		if ch.CardScore > ch.InstScore {
			wantKind = KindCardinality
		}
		if ch.Kind != wantKind {
			t.Fatalf("%s: kind %v inconsistent with scores", ch.Name, ch.Kind)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g, query := leadersGraph()
	opt := Options{
		Selector:    ctxsel.ContextRW{Walks: 20000, Seed: 42},
		ContextSize: 8,
		Seed:        42,
	}
	a := findNC(t, g, query, opt)
	b := findNC(t, g, query, opt)
	if len(a.Characteristics) != len(b.Characteristics) {
		t.Fatal("runs differ in characteristic count")
	}
	for i := range a.Characteristics {
		ca, cb := a.Characteristics[i], b.Characteristics[i]
		if ca.Name != cb.Name || ca.Score != cb.Score || ca.InstP != cb.InstP || ca.CardP != cb.CardP {
			t.Fatalf("runs differ at %d: %+v vs %+v", i, ca, cb)
		}
	}
}

func TestRWMultBaseline(t *testing.T) {
	// RWMult = RandomWalk context + multinomial test; must run end to end.
	g, query := leadersGraph()
	res := findNC(t, g, query, Options{
		Selector:    ctxsel.RandomWalk{},
		ContextSize: 10,
		Seed:        1,
	})
	if len(res.Characteristics) == 0 {
		t.Fatal("RWMult produced no characteristics")
	}
}

func TestKindString(t *testing.T) {
	if KindInstance.String() != "instance" || KindCardinality.String() != "cardinality" {
		t.Fatal("Kind strings wrong")
	}
}

func TestEmptyQuery(t *testing.T) {
	g, _ := leadersGraph()
	res := findNC(t, g, nil, Options{Selector: ctxsel.ContextRW{Walks: 100, Seed: 1}, Seed: 1})
	if len(res.Context) != 0 {
		t.Fatal("empty query should have empty context")
	}
}

func TestByNameMissing(t *testing.T) {
	_, chars := compareWithPeers(t)
	res := Result{Characteristics: chars}
	if _, ok := res.ByName("definitely-not-a-label"); ok {
		t.Fatal("ByName found nonexistent label")
	}
}

func TestCustomAlpha(t *testing.T) {
	// A stricter alpha can only shrink the notable set.
	g, query := leadersGraph()
	ctx := peerContext(g)
	strict := compareSets(t, g, query, ctx, Options{
		Test: stats.Multinomial{Alpha: 1e-12, Seed: 7},
		Seed: 7,
	})
	loose := compareSets(t, g, query, ctx, Options{Seed: 7})
	countNotable := func(cs []Characteristic) int {
		n := 0
		for _, c := range cs {
			if c.Notable() {
				n++
			}
		}
		return n
	}
	if countNotable(strict) > countNotable(loose) {
		t.Fatal("stricter alpha produced more notables")
	}
}

func BenchmarkFindNCLeaders(b *testing.B) {
	g, query := leadersGraph()
	opt := Options{
		Selector:    ctxsel.ContextRW{Walks: 10000, Seed: 1},
		ContextSize: 10,
		Seed:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findNC(b, g, query, opt)
	}
}

func BenchmarkCompareSetsOnly(b *testing.B) {
	g, query := leadersGraph()
	ctx := peerContext(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compareSets(b, g, query, ctx, Options{Seed: 1})
	}
}

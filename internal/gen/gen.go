// Package gen generates the synthetic datasets that stand in for the
// paper's evaluation resources (YAGO 2.5, LinkedMDB and crowdsourced
// ground truth; PAPER.md has the abstract):
//
//   - YAGOLike: a general-purpose knowledge graph with three celebrity
//     domains (politicians, actors, movie contributors), a large distractor
//     population, and the supporting entities (countries, movies, parties,
//     prizes, …) the paper's predicates point at.
//   - LinkedMDBLike: a movie-only graph, denser within its domain.
//   - Authors: the Douglas Adams / Terry Pratchett test case of §4.2.
//   - Figure1: the toy graph of the paper's Figure 1.
//   - Products: the e-commerce camera-comparison scenario motivated in the
//     introduction.
//
// Every generator is deterministic for a fixed seed. Ground-truth context
// sets (the substitute for the paper's crowdsourced answers) are planted as
// the fine-grained peer group of each query plus rater noise, sized within
// the 36–76 entities the paper reports after filtering.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/kg"
)

// Named builds the graph of the built-in dataset called name at seed: yago
// (also the empty name), lmdb, authors, products or figure1. scale
// multiplies the yago and lmdb populations (0 means 1); the other datasets
// have one size.
func Named(name string, seed int64, scale float64) (*kg.Graph, error) {
	switch name {
	case "yago", "":
		return YAGOLike(YAGOConfig{Seed: seed, Scale: scale}).Graph, nil
	case "lmdb":
		return LinkedMDBLike(LMDBConfig{Seed: seed, Scale: scale}).Graph, nil
	case "authors":
		return Authors(seed).Graph, nil
	case "products":
		return Products(seed).Graph, nil
	case "figure1":
		return Figure1().Graph, nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// Scenario bundles a query domain with its entities and planted ground
// truth, mirroring one row block of the paper's Table 1.
type Scenario struct {
	// Domain is "politicians", "actors", or "contributors".
	Domain string
	// Query holds the six query entity names in the paper's order;
	// a query of size q uses the first q names.
	Query []string
	// GroundTruth maps query size (2..6) to the entity names users would
	// have given as related — the crowdsourced context substitute.
	GroundTruth map[int][]string
}

// QueryIDs resolves the first size query names in g.
func (s *Scenario) QueryIDs(g *kg.Graph, size int) ([]kg.NodeID, error) {
	if size < 1 || size > len(s.Query) {
		return nil, fmt.Errorf("gen: query size %d out of range 1..%d", size, len(s.Query))
	}
	out := make([]kg.NodeID, size)
	for i := 0; i < size; i++ {
		id, ok := g.NodeByName(s.Query[i])
		if !ok {
			return nil, fmt.Errorf("gen: query entity %q not in graph", s.Query[i])
		}
		out[i] = id
	}
	return out, nil
}

// GroundTruthIDs resolves the ground-truth set for a query size. Names not
// present in the graph are skipped (the paper likewise dropped entities it
// could not map into YAGO).
func (s *Scenario) GroundTruthIDs(g *kg.Graph, size int) map[kg.NodeID]bool {
	out := make(map[kg.NodeID]bool)
	for _, name := range s.GroundTruth[size] {
		if id, ok := g.NodeByName(name); ok {
			out[id] = true
		}
	}
	return out
}

// Dataset is a generated graph plus its scenarios.
type Dataset struct {
	Graph     *kg.Graph
	Scenarios map[string]*Scenario
	// Name identifies the dataset ("yago-like", "linkedmdb-like", ...).
	Name string
}

// Scenario returns the named scenario or panics — generators always
// register their domains, so a miss is a programming error.
func (d *Dataset) Scenario(domain string) *Scenario {
	s, ok := d.Scenarios[domain]
	if !ok {
		panic("gen: unknown scenario " + domain)
	}
	return s
}

// Table1 holds the paper's Table 1 query entities per domain. The same
// names are planted into the generated graphs so experiments read like the
// paper's.
var Table1 = map[string][]string{
	"politicians": {
		"Angela Merkel", "Barack Obama", "Vladimir Putin",
		"David Cameron", "François Hollande", "Xi Jinping",
	},
	"actors": {
		"Brad Pitt", "George Clooney", "Leonardo DiCaprio",
		"Scarlett Johansson", "Johnny Depp", "Angelina Jolie",
	},
	"contributors": {
		"Steven Spielberg", "Robert Downey Jr.", "Hans Zimmer",
		"Quentin Tarantino", "Ellen Page", "Celine Dion",
	},
}

// pickDistinct samples n distinct ints in [0, bound) (n ≤ bound).
func pickDistinct(rng *rand.Rand, n, bound int) []int {
	perm := rng.Perm(bound)
	return perm[:n]
}

// plantGroundTruth builds the crowdsourced-context substitute for one
// domain: per query size, a sample of the community peers plus a few noise
// entities from an adjacent pool, sized within the paper's 36–76 filtered
// answers. Consecutive sizes share most of their peers (a sliding window
// over a fixed shuffle) because real raters' answers for overlapping
// queries overlap too; wholesale resampling would drown the query-size
// trends of Figure 4 in sampling noise.
func plantGroundTruth(seed int64, query, community, noisePool []string) map[int][]string {
	inQuery := make(map[string]bool, len(query))
	for _, q := range query {
		inQuery[q] = true
	}
	peers := make([]string, 0, len(community))
	for _, c := range community {
		if !inQuery[c] {
			peers = append(peers, c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })

	const window = 46
	out := make(map[int][]string)
	for size := 2; size <= len(query); size++ {
		start := (size - 2) * 3
		end := start + window
		if end > len(peers) {
			end = len(peers)
		}
		if start > end {
			start = end
		}
		gt := append([]string(nil), peers[start:end]...)
		gt = append(gt, sampleNames(rng, noisePool, 4+rng.Intn(5))...)
		out[size] = gt
	}
	return out
}

// sampleNames draws n names from pool without replacement (seeded).
func sampleNames(rng *rand.Rand, pool []string, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	idx := pickDistinct(rng, n, len(pool))
	out := make([]string, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

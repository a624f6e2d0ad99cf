package metapath

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// This file keeps the paper's per-query sampler as a test reference.
// refMine, refWalkOnce and refWeightedPick are the mining code the walk
// bank replaced, verbatim — *rand.Rand draws, map[NodeID]bool membership,
// a fresh walk budget per query. The bank draws other walks, so MineCtx
// matches refMine in law, not bit for bit (TestBankLawMatchesPaperSampler);
// the naive bank of bank_test.go, which shares refWeightedPick, is its
// bitwise reference.

// refWorkers is refMine's fan-out: four goroutines, one walk stream each.
const refWorkers = 4

func refMine(g *kg.Graph, query []kg.NodeID, opt MineOptions) []Mined {
	opt = opt.withDefaults()
	n := g.NumNodes()
	if n == 0 || len(query) == 0 || opt.Walks <= 0 {
		return nil
	}
	inQuery := make(map[kg.NodeID]bool, len(query))
	for _, q := range query {
		inQuery[q] = true
	}
	if len(inQuery) >= n {
		return nil // no start nodes available
	}

	workers := refWorkers
	if workers > opt.Walks {
		workers = opt.Walks
	}
	type shard struct {
		counts map[string]int64
		paths  map[string]Path
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.Seed + int64(w)*0x9e3779b9))
			sh := shard{
				counts: make(map[string]int64),
				paths:  make(map[string]Path),
			}
			walks := opt.Walks / workers
			if w < opt.Walks%workers {
				walks++
			}
			labels := make(Path, 0, opt.MaxLength)
			for i := 0; i < walks; i++ {
				labels = labels[:0]
				if p := refWalkOnce(g, inQuery, rng, opt, labels); p != nil {
					k := p.Key()
					if _, ok := sh.paths[k]; !ok {
						cp := make(Path, len(p))
						copy(cp, p)
						sh.paths[k] = cp
					}
					sh.counts[k]++
				}
			}
			shards[w] = sh
		}(w)
	}
	wg.Wait()

	merged := make(map[string]int64)
	paths := make(map[string]Path)
	for _, sh := range shards {
		for k, c := range sh.counts {
			merged[k] += c
			if _, ok := paths[k]; !ok {
				paths[k] = sh.paths[k]
			}
		}
	}
	out := make([]Mined, 0, len(merged))
	for k, c := range merged {
		out = append(out, Mined{Path: paths[k], Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		return out[i].Path.Key() < out[j].Path.Key()
	})
	return out
}

func refWalkOnce(g *kg.Graph, inQuery map[kg.NodeID]bool, rng *rand.Rand, opt MineOptions, labels Path) Path {
	n := g.NumNodes()
	// Uniform start in V \ Q by rejection; the query is tiny relative to V.
	var cur kg.NodeID
	for {
		cur = kg.NodeID(rng.Intn(n))
		if !inQuery[cur] {
			break
		}
	}
	for step := 0; step < opt.MaxLength; step++ {
		adj := g.OutEdges(cur)
		if len(adj) == 0 {
			return nil
		}
		var e kg.Edge
		if opt.Uniform {
			e = adj[rng.Intn(len(adj))]
		} else {
			e = refWeightedPick(g, cur, adj, rng)
		}
		labels = append(labels, e.Label)
		cur = e.To
		if inQuery[cur] {
			return labels
		}
	}
	return nil
}

func refWeightedPick(g *kg.Graph, from kg.NodeID, adj []kg.Edge, rng *rand.Rand) kg.Edge {
	if g.WeightedOutDegree(from) <= 0 {
		return adj[rng.Intn(len(adj))]
	}
	for tries := 0; tries < 64; tries++ {
		e := adj[rng.Intn(len(adj))]
		if rng.Float64() < g.LabelWeight(e.Label) {
			return e
		}
	}
	// Pathological weights (all ≈ 0): fall back to uniform.
	return adj[rng.Intn(len(adj))]
}

// refGraphs are the graphs the bank suite mines: the YAGO-like
// generator at a tenth of its scale (hubs, dead-end literals, twenty-odd
// labels), the same graph behind a kg.Versioned overlay that adds and
// removes edges around the query, a single-label ring (every label weight is
// 0, so weighted picks take the uniform shortcut), a clique whose one label
// weighs 3·10⁻⁴ (so nearly every weighted pick exhausts its 64 tries and
// falls back) and the branching chain of the unit tests (dead ends one step
// from the query).
func refGraphs(t *testing.T) map[string]*kg.Graph {
	t.Helper()
	yago := gen.YAGOLike(gen.YAGOConfig{Seed: 3, Scale: 0.1}).Graph
	actor := gen.Table1["actors"][0]
	first := yago.OutEdges(nodeID(t, yago, actor))[0]
	v := kg.NewVersioned(yago, kg.VersionedOptions{CompactThreshold: 1 << 30})
	view, err := v.Apply(
		[]kg.Triple{{S: actor, P: "actedIn", O: "Overlay Film"}, {S: "Overlay Fan", P: "admires", O: actor}},
		[]kg.Triple{{S: actor, P: yago.LabelName(first.Label), O: yago.NodeName(first.To)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch == 0 || view.G.NumNodes() <= yago.NumNodes() {
		t.Fatalf("overlay batch was not effective: epoch %d, %d nodes", view.Epoch, view.G.NumNodes())
	}
	ring := kg.NewBuilder(8).Symmetric("next")
	for i := 0; i < 6; i++ {
		ring.AddEdge(nname(i), "next", nname((i+1)%6))
	}
	clique := kg.NewBuilder(80).Symmetric("near")
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			clique.AddEdge(nname3(i), "near", nname3(j))
		}
	}
	clique.AddEdge(nname3(0), "far", nname3(1))
	return map[string]*kg.Graph{"yago": yago, "overlay": view.G, "ring": ring.Build(), "clique": clique.Build(), "chain": chainWithBranch()}
}

// refQueries picks query sets on g: one node, three nodes, and the three
// with one repeated (duplicates must not change which nodes count as query).
func refQueries(t *testing.T, name string, g *kg.Graph) [][]kg.NodeID {
	t.Helper()
	var a, b, c kg.NodeID
	switch name {
	case "yago", "overlay":
		actors := gen.Table1["actors"]
		a, b, c = nodeID(t, g, actors[0]), nodeID(t, g, actors[1]), nodeID(t, g, actors[2])
	case "ring":
		a, b, c = nodeID(t, g, "a"), nodeID(t, g, "c"), nodeID(t, g, "d")
	case "clique":
		a, b, c = nodeID(t, g, nname3(0)), nodeID(t, g, nname3(1)), nodeID(t, g, nname3(40))
	default:
		a, b, c = nodeID(t, g, "q"), nodeID(t, g, "w"), nodeID(t, g, "u3")
	}
	return [][]kg.NodeID{{a}, {a, b, c}, {b, a, b, c, a}}
}

// TestDrawsMatchRand: the draw helper returns rand.Rand's Intn and Float64
// values, call for call, for bounds on both sides of every branch — powers
// of two (masked), small bounds (the modulo is skipped), and bounds near 2³¹
// (the rejection limit is computed and used).
func TestDrawsMatchRand(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 64, 320, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	for seed := int64(0); seed < 4; seed++ {
		d := newDraws(seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000000; i++ {
			if i%3 == 2 {
				if got, want := d.float64(), rng.Float64(); got != want {
					t.Fatalf("seed %d draw %d: float64 = %v, rand.Float64 = %v", seed, i, got, want)
				}
				continue
			}
			n := bounds[(i/3+i)%len(bounds)]
			if got, want := d.intn(n), rng.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: intn(%d) = %d, rand.Intn = %d", seed, i, n, got, want)
			}
		}
	}
}

package kg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func transitionGraph(seed int64, nodes, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(edges)
	labels := []string{"p", "q", "r"}
	name := func(i int) string { return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
	for i := 0; i < nodes; i++ {
		b.Node(name(i))
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(name(rng.Intn(nodes)), labels[rng.Intn(len(labels))], name(rng.Intn(nodes)))
	}
	return b.Build()
}

func TestTransitionsRowsAreStochastic(t *testing.T) {
	g := transitionGraph(3, 40, 160)
	tr := g.Transitions()
	if tr != g.Transitions() {
		t.Fatal("Transitions must build once and return the shared matrix")
	}
	if len(tr.tProb) != g.NumEdges() {
		t.Fatalf("%d transpose probs for %d edges", len(tr.tProb), g.NumEdges())
	}
	for n := 0; n < g.NumNodes(); n++ {
		adj := g.OutEdges(NodeID(n))
		if len(adj) == 0 {
			continue
		}
		sum := 0.0
		for i, e := range adj {
			prob := tr.Prob(NodeID(n), e.Label)
			sum += prob
			if wd := g.WeightedOutDegree(NodeID(n)); wd > 0 {
				want := g.LabelWeight(e.Label) / wd
				if math.Abs(prob-want) > 1e-15 {
					t.Fatalf("node %d edge %d: prob %v, want %v", n, i, prob, want)
				}
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node %d: row sums to %v", n, sum)
		}
	}
}

func TestGatherStepMatchesScatter(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g := transitionGraph(int64(trial), 5+trial*7, 10+trial*23)
		tr := g.Transitions()
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		const c = 0.8
		danglingGather, next := gatherInNodeOrder(tr, make([]float64, n), p, c)

		want := make([]float64, n)
		danglingScatter := 0.0
		for from := 0; from < n; from++ {
			adj := g.OutEdges(NodeID(from))
			if len(adj) == 0 {
				danglingScatter += p[from]
				continue
			}
			for _, e := range adj {
				want[e.To] += c * p[from] * tr.Prob(NodeID(from), e.Label)
			}
		}
		for i := range want {
			if math.Abs(next[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d node %d: gather %v scatter %v", trial, i, next[i], want[i])
			}
		}
		if math.Abs(danglingGather-danglingScatter) > 1e-12 {
			t.Fatalf("trial %d dangling: %v vs %v", trial, danglingGather, danglingScatter)
		}
	}
}

// TestGatherStepOverwritesStaleNext: every gather kernel overwrites next
// outright, so stale contents never leak into a step — on a small graph
// and on a larger one.
func TestGatherStepOverwritesStaleNext(t *testing.T) {
	for _, g := range []*Graph{transitionGraph(9, 20, 60), transitionGraph(9, 3000, 12000)} {
		tr := g.Transitions()
		n := g.NumNodes()
		type kernel struct {
			name string
			b    int
			run  func(next, p []float64)
		}
		kernels := []kernel{
			{"GatherStep", 1, func(next, p []float64) { tr.GatherStep(next, p, 0.8) }},
		}
		for b := 1; b <= MaxGatherBlock; b++ {
			dangling := make([]float64, b)
			kernels = append(kernels,
				kernel{fmt.Sprintf("GatherStepMulti(b=%d)", b), b, func(next, p []float64) {
					tr.GatherStepMulti(next, p, 0.8, b, dangling)
				}})
		}
		for _, k := range kernels {
			p := make([]float64, n*k.b)
			for j := 0; j < k.b; j++ {
				p[j] = float64(j + 1) // all mass on node 0, a different amount per column
			}
			a := make([]float64, n*k.b)
			k.run(a, p)
			stale := make([]float64, n*k.b)
			for i := range stale {
				stale[i] = 42 // stale garbage that must not leak through
			}
			k.run(stale, p)
			for i := range a {
				if a[i] != stale[i] {
					t.Fatalf("%d nodes %s: slot %d: %v vs %v — accumulated instead of overwriting",
						n, k.name, i, a[i], stale[i])
				}
			}
		}
	}
}

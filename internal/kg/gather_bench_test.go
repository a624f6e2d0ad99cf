package kg_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kg"
)

// gatherGraph is one graph the gather benchmarks run on, built on first
// use so that a -bench filter builds only the graphs it selects.
type gatherGraph struct {
	name  string
	graph func() *kg.Graph
}

// gatherGraphs: uniform is a uniform random graph, whose rows all have
// about the same in-degree; yago is the YAGO-like graph, whose in-degrees
// are heavy-tailed (most rows hold 1–6 edges, a few hubs thousands), and
// yago24 the same with 24× the ambient population (≈640k edges).
var gatherGraphs = []gatherGraph{
	{"uniform", sync.OnceValue(func() *kg.Graph { return kg.TransitionGraph(42, 20000, 200000) })},
	{"yago", sync.OnceValue(func() *kg.Graph { return gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1}).Graph })},
	{"yago24", sync.OnceValue(func() *kg.Graph {
		return gen.YAGOLike(gen.YAGOConfig{Seed: 1, Scale: 1, AmbientScale: 24}).Graph
	})},
}

// benchVector returns n*b deterministic positive entries.
func benchVector(n, b int) []float64 {
	p := make([]float64, n*b)
	for i := range p {
		p[i] = float64(i%977+1) / float64(n)
	}
	return p
}

// BenchmarkGatherStep measures the dense gather kernel, reporting ns per
// edge.
func BenchmarkGatherStep(b *testing.B) {
	for _, gg := range gatherGraphs {
		b.Run(gg.name, func(b *testing.B) {
			tr := gg.graph().Transitions()
			n, edges := gg.graph().NumNodes(), float64(gg.graph().NumEdges())
			p, next := benchVector(n, 1), make([]float64, n)
			b.Run("serial", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tr.GatherStep(next, p, 0.8)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
			})
		})
	}
}

// BenchmarkGatherStepMulti measures one blocked step at widths 2, 3, 4
// (the widths a block narrows to as its columns retire) and 8, reporting
// ns per edge and column, and pits the width-8 step against 8 serial
// steps — the amortization claim of the batched cold path.
func BenchmarkGatherStepMulti(b *testing.B) {
	for _, gg := range gatherGraphs {
		b.Run(gg.name, func(b *testing.B) {
			tr := gg.graph().Transitions()
			n, edges := gg.graph().NumNodes(), float64(gg.graph().NumEdges())
			const width = kg.MaxGatherBlock
			pm, nextM := benchVector(n, width), make([]float64, n*width)
			dangling := make([]float64, width)
			for _, w := range []int{2, 3, 4, width} {
				b.Run(fmt.Sprintf("multi%d", w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						tr.GatherStepMulti(nextM[:n*w], pm[:n*w], 0.8, w, dangling)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges/float64(w), "ns/edge/col")
				})
			}
			// The serial baseline cycles 8 distinct vectors, as 8
			// independent queries would — re-reading one cached vector 8
			// times would flatter it.
			ps := make([][]float64, width)
			for v := range ps {
				ps[v] = make([]float64, n)
				for x := range ps[v] {
					ps[v][x] = pm[x*width+v]
				}
			}
			next := make([]float64, n)
			b.Run("serial8", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for v := 0; v < width; v++ {
						tr.GatherStep(next, ps[v], 0.8)
					}
				}
			})
		})
	}
}

// BenchmarkTransitionsBuild times the transition matrix build of the
// YAGO-like graph read back from its snapshot (flat), and of an overlay
// view of it one ingest batch away — the build every ingest makes the
// next PageRank pay.
func BenchmarkTransitionsBuild(b *testing.B) {
	base := gatherGraphs[1].graph()
	b.Run("flat", func(b *testing.B) {
		var buf bytes.Buffer
		if err := base.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g, err := kg.ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			g.Transitions()
		}
	})
	b.Run("overlay", func(b *testing.B) {
		store := kg.NewVersioned(base, kg.VersionedOptions{CompactThreshold: -1})
		batch := make([]kg.Triple, 0, 32)
		for i := 0; i < cap(batch); i++ {
			s := kg.NodeID(i * 7919 % base.NumNodes())
			e := base.OutEdges(s)[0]
			batch = append(batch, kg.Triple{S: base.NodeName(s), P: base.LabelName(e.Label), O: fmt.Sprintf("bench-new-%d", i)})
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Alternate adding and deleting the batch so the overlay
			// stays the same size across iterations.
			adds, dels := batch, []kg.Triple(nil)
			if i%2 == 1 {
				adds, dels = nil, batch
			}
			view, err := store.Apply(adds, dels)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			view.G.Transitions()
		}
	})
}

// Politicians: the paper's motivating scenario on the YAGO-like dataset —
// what makes Angela Merkel and Barack Obama special among world leaders?
//
// The engine selects ~100 peer leaders as context and should surface
// Merkel's doctorate, her Physics studies, and her missing hasChild edge,
// while shared properties (party membership, summit attendance) stay
// unremarkable. The example also demonstrates the correlation extension.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/corr"
	"repro/internal/gen"
	"repro/internal/stats"
)

func main() {
	fmt.Println("generating YAGO-like dataset ...")
	ds := gen.YAGOLike(gen.YAGOConfig{Seed: 42})
	g := ds.Graph
	fmt.Println("graph:", g.Stats())

	engine := notable.NewEngine(g, notable.Options{
		ContextSize: 100,
		Walks:       200000,
		Seed:        42,
	})
	query, err := engine.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Do(context.Background(), notable.Query{Nodes: query})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntop context nodes:")
	for i, item := range res.Context {
		if i >= 8 {
			break
		}
		fmt.Printf("  %2d. %s\n", i+1, g.NodeName(item.ID))
	}

	fmt.Println("\nnotable characteristics:")
	for _, c := range res.NotableOnly() {
		fmt.Printf("  %-16s score=%.4f (%s)\n", c.Name, c.Score, c.Kind)
	}

	// Future-work extension: correlated attribute pairs.
	labels := g.LabelsOf(append(res.Query, res.ContextIDs()...))
	pairs := corr.Find(g, res.Query, res.ContextIDs(), labels, corr.Options{
		Test: stats.Multinomial{Seed: 42},
	})
	fmt.Println("\ncorrelated label pairs (extension):")
	shown := 0
	for _, p := range pairs {
		if !p.Notable() || shown >= 5 {
			continue
		}
		fmt.Printf("  %s × %s  P=%.4f  query cells=%v context cells=%v\n",
			p.AName, p.BName, p.P, p.QueryCells, p.ContextCells)
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no significant pairs)")
	}
}

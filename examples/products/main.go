// Products: the e-commerce scenario from the paper's introduction —
// "imagine a user compares two cameras and wants to know what are the
// special features of these two with respect to all the others".
//
// The two query cameras share in-body stabilization and weather sealing,
// rare in their segment: hasFeature should be the notable characteristic,
// while brand/sensor/mount distributions match the segment and stay
// unremarkable.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/gen"
)

func main() {
	ds := gen.Products(11)
	g := ds.Graph
	fmt.Println("catalog graph:", g.Stats())

	engine := notable.NewEngine(g, notable.Options{
		ContextSize: 30,
		Walks:       50000,
		Seed:        11,
	})
	query, err := engine.Resolve("Camera Alpha-7", "Camera X-Pro9")
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Do(context.Background(), notable.Query{Nodes: query})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nmost similar cameras:")
	for i, item := range res.Context {
		if i >= 6 {
			break
		}
		fmt.Printf("  %2d. %s\n", i+1, g.NodeName(item.ID))
	}

	fmt.Println("\nwhat makes the two cameras special:")
	for _, c := range res.Characteristics {
		marker := "  "
		if c.Notable() {
			marker = "* "
		}
		fmt.Printf("%s%-12s score=%.4f  P(inst)=%.4f P(card)=%.4f\n",
			marker, c.Name, c.Score, c.InstP, c.CardP)
	}
}

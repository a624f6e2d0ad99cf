package notable_test

import (
	"context"
	"fmt"

	"repro"
)

// figure1Graph builds the paper's Figure 1 world.
func figure1Graph() *notable.Graph {
	b := notable.NewBuilder(32)
	b.AddEdge("Angela Merkel", "studied", "Physics")
	for _, leader := range []string{"Barack Obama", "Vladimir Putin", "Matteo Renzi", "François Hollande"} {
		b.AddEdge(leader, "studied", "Law")
	}
	b.AddEdge("Barack Obama", "hasChild", "Malia")
	b.AddEdge("Vladimir Putin", "hasChild", "Mariya")
	b.AddEdge("Vladimir Putin", "hasChild", "Yecaterina")
	b.AddEdge("Matteo Renzi", "hasChild", "Francesca")
	b.AddEdge("Matteo Renzi", "hasChild", "Emanuele")
	b.AddEdge("Matteo Renzi", "hasChild", "Ester")
	b.AddEdge("François Hollande", "hasChild", "Thomas")
	b.AddEdge("François Hollande", "hasChild", "Clémence")
	b.AddEdge("François Hollande", "hasChild", "Julien")
	b.AddEdge("François Hollande", "hasChild", "Flora")
	return b.Build()
}

// ExampleEngine_Do reproduces the paper's Figure 1 walkthrough through
// the request-scoped API: compared with other leaders, Angela Merkel has
// no children and studied Physics rather than Law.
func ExampleEngine_Do() {
	engine := notable.NewEngine(figure1Graph(), notable.Options{
		ContextSize: 3,
		Walks:       20000,
		Seed:        7,
	})
	query, err := engine.Resolve("Angela Merkel", "Barack Obama")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := engine.Do(context.Background(), notable.Query{Nodes: query})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, c := range res.NotableOnly() {
		fmt.Println(c.Name)
	}
	// Output:
	// hasChild
	// studied
}

// ExampleEngine_DoStream serves a batch as a stream: each query's result
// arrives the moment it completes instead of waiting for the whole batch.
func ExampleEngine_DoStream() {
	engine := notable.NewEngine(figure1Graph(), notable.Options{
		ContextSize: 3,
		Walks:       20000,
		Seed:        7,
	})
	merkelObama, _ := engine.Resolve("Angela Merkel", "Barack Obama")
	putin, _ := engine.Resolve("Vladimir Putin")
	notables := make([]int, 2)
	for out := range engine.DoStream(context.Background(), []notable.Query{
		{Nodes: merkelObama},
		{Nodes: putin, TopK: 3}, // per-request override: top 3 labels only
	}) {
		if out.Err != nil {
			fmt.Println("error:", out.Err)
			return
		}
		notables[out.Index] = len(out.Result.NotableOnly())
	}
	fmt.Println(notables[0] > 0, len(notables) == 2)
	// Output:
	// true true
}

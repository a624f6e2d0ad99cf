package notable

import (
	"context"
	"os"

	"repro/internal/core"
)

// writeFile is a test helper shared across root-package tests.
func writeFile(path, data string) error {
	return os.WriteFile(path, []byte(data), 0o644)
}

// doNames resolves entity names and serves them as one default-options
// request.
func doNames(e *Engine, names ...string) (Result, error) {
	query, err := e.Resolve(names...)
	if err != nil {
		return Result{}, err
	}
	return e.Do(context.Background(), Query{Nodes: query})
}

// asQueries wraps node sets as override-free requests.
func asQueries(nodes [][]NodeID) []Query {
	qs := make([]Query, len(nodes))
	for i, q := range nodes {
		qs[i] = Query{Nodes: q}
	}
	return qs
}

// contextsOf is core.CollectContexts without its error: each query's
// released context in its slot, nil where none was released.
func contextsOf(ctx context.Context, g *Graph, queries [][]NodeID, copt core.Options) [][]ContextItem {
	out, _ := core.CollectContexts(ctx, g, queries, copt)
	return out
}

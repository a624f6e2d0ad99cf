package notable

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

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

// contextsOf runs core.Contexts and returns each query's released
// context in its slot, nil where none was released.
func contextsOf(ctx context.Context, g *Graph, queries [][]NodeID, copt core.Options) [][]ContextItem {
	out := make([][]ContextItem, len(queries))
	core.Contexts(ctx, g, queries, copt, func(i int, items []ContextItem) { out[i] = items })
	return out
}

// sentinel carries a pointer so that it is never tiny-allocated: a tiny
// block shared with other objects may never be finalized.
type sentinel struct{ _ *int }

// armSentinel sets a finalizer that closes done on an object nothing
// references.
func armSentinel(done chan struct{}) {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
}

// settleFinalizers returns once the finalizer of every object that was
// unreachable at the call has run — the seed vectors of engines earlier
// tests dropped without Close among them. runtime.GC queues them all
// before it returns, and the finalizer goroutine runs the whole queue it
// takes before it takes the next, so a sentinel armed after the first
// one ran runs after every finalizer queued with the first.
func settleFinalizers() {
	for range 2 {
		done := make(chan struct{})
		armSentinel(done)
		runtime.GC()
		<-done
	}
}

// gaugeValue reads one unlabelled series from e's registry.
func gaugeValue(t *testing.T, e *Engine, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s line in the exposition", name)
	return 0
}

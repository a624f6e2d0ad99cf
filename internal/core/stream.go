// Streaming batch search: FindNCStream runs the same deduplicated batch
// pipeline as FindNCBatch but releases each query's result the moment it
// is ready instead of barriering the whole batch.
//
// The barrier FindNCBatch pays is structural: the multi-source PageRank
// solve finishes every query's context before any comparison stage
// starts, so the first result of an N-query batch arrives only after all
// N have been compared. Here context selection is the streaming Contexts
// call: as each query's context is released (a cache hit at once), its
// comparison stage is dispatched immediately on its own goroutine —
// admission-bounded, see below — and its result is emitted as soon as
// the comparison finishes. Seed-level deduplication across the
// batch is untouched (it lives inside the multi-source solve), and each
// emitted Result is bitwise identical to a solo FindNC call.
//
// Admission control: at most ⌈Parallelism/4⌉ (minimum one) comparison
// stages run concurrently, each internally fanning its labels through
// the shared executor at the full Parallelism width. Running every stage
// at once would finish them all near-simultaneously — fair scheduling
// pushes every completion toward the batch's end, exactly the barrier
// the stream exists to break — while narrow admission staggers
// completions so the first result lands after roughly one comparison's
// work. Total wall-clock stays close to the barriered batch because an
// admitted stage alone spans the executor (its label fan is as wide as
// FindNCBatch's per-query workers combined would be).
package core

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/kg"
	"repro/internal/topk"
)

// errSelectorStalled reports a streaming selector that returned without
// either delivering a query or a cancelled ctx — a selector contract
// violation surfaced as an error rather than a hang.
var errSelectorStalled = errors.New("core: streaming selector ended before delivering every query")

// FindNCStream runs FindNC for every query, invoking emit(i, res, err)
// exactly once per query as each completes — results stream in completion
// order, not index order. emit may be called concurrently from several
// goroutines; FindNCStream returns only after every emit has. While ctx
// stays live every emitted Result is bitwise identical to a solo FindNC
// call; once ctx is cancelled, queries not yet emitted are flushed with
// err = ctx.Err() and all workers stop within one PageRank sweep or one
// label test.
func FindNCStream(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, emit func(i int, res Result, err error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if len(queries) == 0 {
		return
	}
	stages := (opt.Parallelism + 3) / 4
	if stages < 1 {
		stages = 1
	}
	sem := make(chan struct{}, stages)
	var wg sync.WaitGroup
	released := make([]bool, len(queries))
	compare := func(i int, items []topk.Item) {
		if err := ctx.Err(); err != nil {
			emit(i, Result{}, err)
			return
		}
		res := Result{Query: queries[i], Context: items}
		chars, err := CompareSets(ctx, g, queries[i], res.ContextIDs(), opt)
		if err != nil {
			emit(i, Result{}, err)
			return
		}
		res.Characteristics = chars
		emit(i, res, nil)
	}
	// On a single-P runtime there is no concurrency to exploit between
	// the solve and the comparisons: a spawned stage would round-robin
	// with the remaining solve and delay every completion equally.
	// Running each released query's comparison inline on the solver
	// goroutine finishes it — and emits it — before the next seed solves,
	// which is exactly the stream's latency contract.
	inline := runtime.GOMAXPROCS(0) == 1
	ready := func(i int, items []topk.Item) {
		released[i] = true
		if inline {
			compare(i, items)
			return
		}
		// Called from the solver goroutine: hand the comparison to its
		// own admission-bounded goroutine so the solve keeps streaming.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			compare(i, items)
		}()
	}
	Contexts(ctx, g, queries, opt, ready)
	// The selector only withholds queries when cancelled; flush whatever it
	// never released so every index gets exactly one emit.
	for i := range queries {
		if !released[i] {
			err := ctx.Err()
			if err == nil {
				err = errSelectorStalled
			}
			emit(i, Result{}, err)
		}
	}
	wg.Wait()
}

// Streaming batch search: FindNCStream runs the same deduplicated batch
// pipeline as FindNCBatch but releases each query's result the moment it
// is ready instead of barriering the whole batch.
//
// The barrier FindNCBatch pays is structural: the multi-source PageRank
// solve finishes every query's context before any comparison stage
// starts, so the first result of an N-query batch arrives only after all
// N have been compared. Here context selection is the streaming Contexts
// call: as each query's context is released (a cache hit at once), its
// comparison stage runs inside the release callback, on the calling
// goroutine, and its result is emitted before the selector moves on to
// the next query's seeds. Seed-level deduplication across the batch is
// untouched (it lives inside the selector), and each emitted Result is
// bitwise identical to a solo FindNC call.
package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/kg"
	"repro/internal/topk"
)

// errSelectorStalled reports a streaming selector that returned without
// either delivering a query or a cancelled ctx — a selector contract
// violation surfaced as an error rather than a hang.
var errSelectorStalled = errors.New("core: streaming selector ended before delivering every query")

// FindNCStream runs FindNC for every query, invoking emit(i, res, err)
// exactly once per query as each completes — results stream in completion
// order, not index order. Every emit runs on the calling goroutine, before
// FindNCStream returns. While ctx stays live every emitted Result is
// bitwise identical to a solo FindNC call; once ctx is cancelled, queries
// not yet emitted are flushed with err = ctx.Err() within one PageRank
// sweep or one label test.
func FindNCStream(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, emit func(i int, res Result, err error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if len(queries) == 0 {
		return
	}
	released := make([]bool, len(queries))
	var compared time.Duration // inside the selection, but not part of it
	start := time.Now()
	Contexts(ctx, g, queries, opt, func(i int, items []topk.Item) {
		released[i] = true
		cmpStart := time.Now()
		var res Result
		err := ctx.Err()
		if err == nil {
			res = Result{Query: queries[i], Context: items}
			if res.Characteristics, err = CompareSets(ctx, g, queries[i], res.ContextIDs(), opt); err != nil {
				res = Result{}
			}
		}
		emit(i, res, err)
		compared += time.Since(cmpStart)
	})
	if opt.Obs != nil {
		opt.Obs.Select.Observe(time.Since(start) - compared)
	}
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
}

// The one pass: FindNCStream runs a batch's deduplicated selection and
// releases each query's result the moment it is ready.
//
// Each query's comparison stage runs inside the release callback of the
// same Contexts call (a cache hit at once), on the calling goroutine, and
// its result is emitted before the selector moves on to the next query's
// seeds. Seed-level deduplication across the batch is untouched (it lives
// inside the selector). Every search runs this pass: FindNCBatch is it
// collected by query index, and FindNC is FindNCBatch of one.
package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/kg"
	"repro/internal/topk"
)

// errSelectorStalled reports a selector that returned under a live ctx
// without releasing every query — a selector contract violation surfaced
// as an error rather than a hang or an empty context.
var errSelectorStalled = errors.New("core: streaming selector ended before delivering every query")

// FindNCStream runs the full pipeline for every query, invoking emit(i,
// res, err) exactly once per query as each completes — results stream in
// completion order, not index order. Every emit runs on the calling
// goroutine, before FindNCStream returns. While ctx stays live every
// emitted Result is bitwise identical to a solo FindNC call; once ctx is
// cancelled, queries not yet emitted are flushed with err = ctx.Err()
// within one PageRank sweep or one label test. Under Options.Partial the
// query whose comparison the cut lands in is emitted with its context and
// the labels tested so far, alongside a *PartialError.
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
			var pe *PartialError
			res.Characteristics, err = CompareSets(ctx, g, queries[i], res.ContextIDs(), opt)
			if err != nil && !errors.As(err, &pe) {
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

// Request-scoped serving API: Query, Outcome, and the Do family.
//
// An Engine is configured once (Options) and then serves many
// individually-tuned requests: each Query carries its nodes plus
// per-request overrides, each call takes a context.Context, and
// cancellation propagates through every layer — the PageRank solve checks
// it between sweeps, the comparison stage between label tests — so a
// dropped request stops burning CPU mid-solve. DoStream turns a batch
// into a stream of Outcomes, releasing each query's result the moment it
// completes instead of barriering the whole batch.
package notable

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/stats"
)

// Query is one request-scoped search: the query nodes plus per-request
// overrides of the engine's Options. Zero-valued override fields inherit
// the engine's configuration, so Query{Nodes: q} runs under the engine's
// Options exactly.
type Query struct {
	// Nodes is the query entity set Q. Required: an empty query yields
	// ErrEmptyQuery.
	Nodes []NodeID

	// ContextSize overrides Options.ContextSize when > 0.
	ContextSize int
	// Selector overrides Options.Selector when non-empty (one of the
	// Selector* constants).
	Selector string
	// Alpha overrides Options.Alpha when > 0.
	Alpha float64
	// TopK, when > 0, truncates Result.Characteristics to the TopK
	// highest-ranked records after testing (the full context is still
	// selected and every label still tested — TopK only bounds the
	// response payload). 0 keeps every tested label.
	TopK int
	// Policy overrides Options.Policy when non-empty (PolicyStrict or
	// PolicyPooled).
	Policy string
	// TestSamples overrides Options.TestSamples when > 0. It may only
	// lower the engine's cap: a value above Options.TestSamples (20000
	// when not positive) is ErrBadQuery, since the Monte-Carlo loop of one
	// label test runs to the cap without looking at ctx.
	TestSamples int
	// Walks overrides Options.Walks when > 0 (the ContextRW selector's
	// PathMining budget). It may only lower the budget: a value above the
	// engine's Options.Walks (DefaultWalks when not positive) is
	// ErrBadQuery, so that the walk bank a graph epoch retains never grows
	// past the configured size. The override reads a prefix of the same bank and
	// folds into the selector cache key, so results equal an engine
	// configured with the same Walks — warm or cold — and never collide
	// with other budgets' entries.
	Walks int
	// Damping overrides Options.Damping when > 0 (the RandomWalk
	// selector's restart parameter, valid in (0, 1)). Folded into the
	// selector and seed-vector cache keys like Walks.
	Damping float64

	// Degrade opts this request into deadline-degraded mode: when ctx is
	// cut (deadline or cancellation) during the comparison stage, Do
	// returns the labels tested so far — a prefix-consistent subset of the
	// full report, context included — alongside a *DegradedError instead
	// of discarding the work with a bare ctx error. A cut before the
	// context is selected, or after the comparison has finished, still
	// fails whole. Only Do honors Degrade;
	// DoBatch and DoStream abandon cancelled work outright.
	Degrade bool
}

// validate rejects override values no engine configuration could make
// valid, a Walks or TestSamples above the engine's own (eng's), and node
// IDs g does not have. Zero values are never errors — they mean "inherit the
// engine's option" — so validation only fires on explicit nonsense:
// negative sizes/counts, significance levels outside (0, 1), selector
// names other than the four Selector* constants, policy names other than
// the two Policy* constants, and node IDs past g.NumNodes().
func (q Query) validate(g *kg.Graph, eng Options) error {
	if len(q.Nodes) == 0 {
		return ErrEmptyQuery
	}
	switch {
	case q.TopK < 0:
		return fmt.Errorf("%w: TopK %d < 0", ErrBadQuery, q.TopK)
	case q.ContextSize < 0:
		return fmt.Errorf("%w: ContextSize %d < 0", ErrBadQuery, q.ContextSize)
	case q.Alpha != 0 && (q.Alpha <= 0 || q.Alpha >= 1):
		return fmt.Errorf("%w: Alpha %v outside (0, 1)", ErrBadQuery, q.Alpha)
	case q.TestSamples < 0:
		return fmt.Errorf("%w: TestSamples %d < 0", ErrBadQuery, q.TestSamples)
	case q.TestSamples > eng.samplesCap():
		return fmt.Errorf("%w: TestSamples %d above the engine's cap %d", ErrBadQuery, q.TestSamples, eng.samplesCap())
	case q.Walks < 0:
		return fmt.Errorf("%w: Walks %d < 0", ErrBadQuery, q.Walks)
	case q.Walks > eng.Walks:
		return fmt.Errorf("%w: Walks %d above the engine's budget %d", ErrBadQuery, q.Walks, eng.Walks)
	case q.Damping != 0 && (q.Damping <= 0 || q.Damping >= 1):
		return fmt.Errorf("%w: Damping %v outside (0, 1)", ErrBadQuery, q.Damping)
	}
	switch q.Selector {
	case "", SelectorContextRW, SelectorRandomWalk, SelectorSimRank, SelectorJaccard:
	default:
		return fmt.Errorf("%w: Selector %q is none of %q, %q, %q, %q", ErrBadQuery, q.Selector,
			SelectorContextRW, SelectorRandomWalk, SelectorSimRank, SelectorJaccard)
	}
	switch q.Policy {
	case "", PolicyStrict, PolicyPooled:
	default:
		return fmt.Errorf("%w: Policy %q is neither %q nor %q", ErrBadQuery, q.Policy, PolicyStrict, PolicyPooled)
	}
	return checkNodes(g, "Nodes", q.Nodes)
}

// checkNodes rejects the first of ids that is not a node of g, naming the
// list, the index and the value.
func checkNodes(g *kg.Graph, list string, ids []NodeID) error {
	n := g.NumNodes()
	for i, id := range ids {
		if int(id) >= n {
			return fmt.Errorf("%w: %s[%d] = %d is not a node (the graph has %d)", ErrBadQuery, list, i, id, n)
		}
	}
	return nil
}

// samplesCap is the Monte-Carlo sample cap o gives every label test.
func (o Options) samplesCap() int {
	if o.TestSamples > 0 {
		return o.TestSamples
	}
	return stats.DefaultSamples
}

// apply returns o with q's non-zero overrides folded in.
func (o Options) apply(q Query) Options {
	if q.ContextSize > 0 {
		o.ContextSize = q.ContextSize
	}
	if q.Selector != "" {
		o.Selector = q.Selector
	}
	if q.Alpha > 0 {
		o.Alpha = q.Alpha
	}
	if q.Policy != "" {
		o.Policy = q.Policy
	}
	if q.TestSamples > 0 {
		o.TestSamples = q.TestSamples
	}
	if q.Walks > 0 {
		o.Walks = q.Walks
	}
	if q.Damping > 0 {
		o.Damping = q.Damping
	}
	return o
}

// trim applies q's TopK cut to a finished result.
func (q Query) trim(res Result) Result {
	if q.TopK > 0 && len(res.Characteristics) > q.TopK {
		res.Characteristics = res.Characteristics[:q.TopK:q.TopK]
	}
	return res
}

// Outcome is one query's entry in a DoStream: the index of the query in
// the request slice, and its result or error. Exactly one of Result/Err
// is meaningful: Err is nil for a completed search, ctx.Err() for a
// query abandoned by cancellation, or a validation error (ErrEmptyQuery,
// ErrBadQuery) for a malformed query.
type Outcome struct {
	// Index locates the query in the DoStream request slice.
	Index int
	// Result is the completed search, valid when Err is nil.
	Result Result
	// Err is nil on success.
	Err error
}

// Do serves one request: the full pipeline (context selection +
// distribution comparison) for q.Nodes under q's overrides. A cancelled
// ctx aborts the search within one PageRank sweep or one label test and
// returns ctx.Err(); the engine's caches are never corrupted by an
// abandoned request (only complete contexts, vectors and records are
// stored).
//
// With q.Degrade set, a cut that lands in the comparison stage returns
// the partial Result (context + labels tested so far, TopK-trimmed)
// alongside a *DegradedError instead; see Query.Degrade.
func (e *Engine) Do(ctx context.Context, q Query) (Result, error) {
	start := time.Now()
	res, err := e.doOne(ctx, q)
	e.met.do.Observe(time.Since(start))
	return res, err
}

// doOne is Do without the end-to-end request timer.
func (e *Engine) doOne(ctx context.Context, q Query) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	view := e.vg.View() // pin: the whole request runs on this epoch
	if err := q.validate(view.G, e.opt); err != nil {
		return Result{}, err
	}
	copt := e.coreOptionsFor(e.opt.apply(q), view)
	copt.Partial = q.Degrade
	res, err := core.FindNC(ctx, view.G, q.Nodes, copt)
	var pe *core.PartialError
	if errors.As(err, &pe) {
		return q.trim(res), &DegradedError{Cause: pe.Cause, Tested: pe.Tested, Total: pe.Total}
	}
	if err != nil {
		return Result{}, err
	}
	return q.trim(res), nil
}

// DoBatch serves many requests in one batched pass and returns one
// Result per query, in order. Queries with identical effective options
// (engine options + overrides; TopK excluded, it is a per-query
// post-cut) share one deduplicated cold pass — per-query cache consults
// first, one multi-source PageRank solve for the misses (each distinct
// seed solved once, through the per-seed fold a single query runs), each
// query compared on the caller's goroutine as its context is released,
// as DoStream does — and results are bitwise identical to calling Do per
// query for every batch size and override mix. Batches whose overrides
// differ are grouped by effective options; deduplication applies within
// each group.
//
// Validation is up-front: any malformed query — empty, a bad override, a
// node ID the graph lacks — fails the whole batch with an error wrapping
// ErrEmptyQuery or ErrBadQuery and naming the index. A cancelled ctx
// stops every group within one sweep or label test and returns ctx.Err().
func (e *Engine) DoBatch(ctx context.Context, qs []Query) ([]Result, error) {
	start := time.Now()
	rs, err := e.doBatch(ctx, qs)
	e.met.doBatch.Observe(time.Since(start))
	return rs, err
}

// doBatch is DoBatch without the end-to-end request timer.
func (e *Engine) doBatch(ctx context.Context, qs []Query) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	view := e.vg.View() // pin: every group of the batch runs on this epoch
	for i, q := range qs {
		if err := q.validate(view.G, e.opt); err != nil {
			return nil, fmt.Errorf("%w (batch index %d)", err, i)
		}
	}
	results := make([]Result, len(qs))
	for _, grp := range e.groupRequests(qs, view) {
		rs, err := core.FindNCBatch(ctx, view.G, grp.nodes, grp.copt)
		if err != nil {
			return nil, err
		}
		for j, i := range grp.idx {
			results[i] = qs[i].trim(rs[j])
		}
	}
	return results, nil
}

// DoStream serves many requests as a stream: it returns immediately with
// a channel carrying exactly one Outcome per query — in completion
// order, not index order — and closes it when the batch is done. Like
// DoBatch it deduplicates seeds across queries with identical effective
// options, but each query is released to its comparison stage the moment
// its PageRank sum folds and its Outcome is emitted as soon as the
// comparison finishes: the first result of an overlapping batch arrives
// in a fraction of the batch's total wall-clock, with every Result
// bitwise identical to a solo Do call.
//
// Cancelling ctx stops the stream within one PageRank sweep or one
// label test; queries not yet completed are flushed with Err = ctx.Err()
// and the channel closes. The channel is buffered for the whole batch,
// so a consumer that stops receiving (with or without cancelling) never
// blocks or leaks the stream's goroutine. Malformed queries (empty node
// sets, bad overrides, node IDs the graph lacks) yield an Outcome with Err
// wrapping ErrEmptyQuery or ErrBadQuery instead of failing the batch.
func (e *Engine) DoStream(ctx context.Context, qs []Query) <-chan Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	ch := make(chan Outcome, len(qs))
	view := e.vg.View() // pin: the stream's queries all run on this epoch
	valid := make([]Query, 0, len(qs))
	origIdx := make([]int, 0, len(qs)) // maps valid-slice position → qs index
	for i, q := range qs {
		if err := q.validate(view.G, e.opt); err != nil {
			ch <- Outcome{Index: i, Err: fmt.Errorf("%w (batch index %d)", err, i)}
			continue
		}
		valid = append(valid, q)
		origIdx = append(origIdx, i)
	}
	groups := e.groupRequests(valid, view)
	start := time.Now()
	go func() {
		defer close(ch)
		// One observation per stream: first query in to last outcome out.
		defer func() { e.met.doStream.Observe(time.Since(start)) }()
		for _, grp := range groups {
			grp := grp
			core.FindNCStream(ctx, view.G, grp.nodes, grp.copt, func(j int, res Result, err error) {
				i := origIdx[grp.idx[j]]
				if err == nil {
					res = qs[i].trim(res)
				}
				ch <- Outcome{Index: i, Result: res, Err: err}
				// Yield so a consumer blocked on the channel observes the
				// outcome now: the next query's solve and comparison run on
				// this goroutine, and on a saturated (or single-P) runtime
				// they would otherwise delay delivery of finished results
				// until the batch drains — the barrier the stream exists to
				// break.
				runtime.Gosched()
			})
		}
	}()
	return ch
}

// requestGroup is one DoBatch/DoStream partition: the indices (into the
// validated query slice) sharing one set of effective options, their node
// sets, and the translated core options.
type requestGroup struct {
	idx   []int
	nodes [][]NodeID
	copt  core.Options
}

// groupRequests partitions the validated qs by effective options
// (first-appearance order, stable within a group) so each partition can
// share one deduplicated batch pass, all pinned to the caller's view.
// TopK never splits a group — it is applied per query after the fact.
func (e *Engine) groupRequests(qs []Query, view *kg.View) []*requestGroup {
	byOpt := make(map[Options]*requestGroup)
	var groups []*requestGroup
	for i, q := range qs {
		eff := e.opt.apply(q)
		grp := byOpt[eff]
		if grp == nil {
			grp = &requestGroup{copt: e.coreOptionsFor(eff, view)}
			byOpt[eff] = grp
			groups = append(groups, grp)
		}
		grp.idx = append(grp.idx, i)
		grp.nodes = append(grp.nodes, q.Nodes)
	}
	return groups
}

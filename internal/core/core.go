// Package core implements FindNC, the paper's end-to-end notable
// characteristics search (Problem 1):
//
//  1. Select the context C — the top-k nodes most similar to the query Q —
//     with a pluggable context selector (ContextRW by default).
//  2. For every edge label incident to Q ∪ C, build the instance and
//     cardinality distributions (Section 3.2) and run the multinomial
//     test of the query observation against the context distribution.
//  3. A label is notable iff either test rejects at the significance
//     level; its score is δ = max(δ_Inst, δ_Card) ∈ (0.95, 1].
//
// A search runs on its request's goroutine: the context is selected there
// and the labels are then tested one after another in LabelsOf order (the
// finished report optionally memoized through Options.Cache). Results are
// deterministic for a fixed seed because every randomized component takes
// an explicit seed. The one fan-out is FindNCBatch's, which compares the
// queries of a batch at once through internal/exec.
//
// Every entry point is request-scoped: it takes a context.Context,
// threads it through context selection (the PageRank loops check it
// between sweeps) and the comparison stage (checked between label tests),
// and returns ctx.Err() once the request is cancelled — a dropped request
// stops burning CPU mid-solve. Cancellation never corrupts shared caches:
// only complete records and contexts are stored. FindNCStream (stream.go)
// additionally releases each query of a batch as it completes instead of
// barriering.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ctxsel"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/kg"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/stats"
	"repro/internal/topk"
)

// Kind identifies which distribution a score refers to.
type Kind int

const (
	// KindInstance marks the instance (value) distribution.
	KindInstance Kind = iota
	// KindCardinality marks the cardinality (count) distribution.
	KindCardinality
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindCardinality {
		return "cardinality"
	}
	return "instance"
}

// Characteristic is the full test record for one edge label.
type Characteristic struct {
	// Label is the tested edge label.
	Label kg.LabelID
	// Name is the label's name, for rendering.
	Name string
	// Score is δ(l, C, Q) = max of the two MT scores; 0 means not notable.
	Score float64
	// Kind says which distribution produced Score.
	Kind Kind
	// InstScore and CardScore are the individual MT scores.
	InstScore, CardScore float64
	// InstP and CardP are the significance probabilities Pr_s of the two
	// tests (small = deviant).
	InstP, CardP float64
	// Inst and Card are the underlying distributions, kept for inspection
	// and for the Figure 7/8 reproductions.
	Inst dist.Instance
	Card dist.Cardinality
}

// Notable reports whether the label passed the significance test.
func (c Characteristic) Notable() bool { return c.Score > 0 }

// Options configures FindNC. The zero value reproduces the paper's
// defaults.
type Options struct {
	// ContextSize is k, the number of context nodes. The paper's test
	// cases use 100 (actors) and 30 (authors). Default 100.
	ContextSize int
	// Selector chooses the context. Default: ctxsel.ContextRW with Seed.
	Selector ctxsel.Selector
	// Test configures the multinomial test (alpha, Monte-Carlo budget).
	Test stats.Multinomial
	// SkipInverse drops automatically generated inverse labels (l⁻¹) from
	// the report. The inverse direction is usually redundant with the
	// forward one; the paper's figures show forward labels only.
	SkipInverse bool
	// Partial opts FindNC and CompareSets into degraded results under
	// cancellation: when ctx is cut mid-comparison the records completed so
	// far are returned — sorted, each bitwise identical to its slot in the
	// uncut run — alongside a *PartialError instead of being discarded with
	// a bare ctx.Err(). The tested set is always a prefix of the
	// deterministic label enumeration order (labels are tested in that
	// order and a started test always finishes), so a degraded response is
	// a prefix-consistent subset of the full one. Cancellation before or
	// during context selection still fails whole — there is no context to
	// be partial about. Batch entry points ignore Partial: a cancelled
	// batch is abandoned outright.
	Partial bool
	// Policy controls how query-only instance values are treated; see
	// dist.UnseenPolicy. Default UnseenStrict (the paper's formula).
	Policy dist.UnseenPolicy
	// Parallelism bounds how many queries of a FindNCBatch are compared at
	// once; 0 means 4. Every other entry point runs on its caller's
	// goroutine.
	Parallelism int
	// Seed drives every randomized component.
	Seed int64
	// Cache, when non-nil, memoizes ranked contexts (see Contexts) and
	// finished comparison reports, one per (query, context, test options)
	// (see CompareSets), across calls. A pointer for the same reason as Obs.
	Cache *Cache

	// Obs, when non-nil, receives per-stage wall times: one Select
	// observation per FindNC call, per batch select phase and per
	// FindNCStream call (cache hits included — a warm hit is still the
	// stage's latency as the caller experienced it; a stream's is its
	// streaming Contexts call minus the comparisons run inside it), and
	// one Compare observation per CompareSets call. Each observation is a
	// few atomic adds; nil costs one branch.
	Obs *StageObs
}

// Cache is the memo a search consults: the entry store plus its two
// layers' key prefixes, built once per (graph epoch, effective options).
type Cache struct {
	Store *qcache.Cache // the entries; required
	// TestPrefix leads every test-layer key: TestKeyPrefix of the graph
	// epoch and the options, or "" to render it on every call.
	TestPrefix string
	// SelectorPrefix leads every selector-layer key: it must identify
	// Options.Selector, every setting that changes its scores, and the epoch.
	SelectorPrefix string
}

// StageObs bundles the per-stage latency histograms a caller may attach
// to Options.Obs. Both fields must be non-nil when Obs is set.
type StageObs struct {
	Select  *obs.Histogram
	Compare *obs.Histogram
}

func (o Options) withDefaults() Options {
	if o.ContextSize == 0 {
		o.ContextSize = 100
	}
	if o.Selector == nil {
		o.Selector = ctxsel.ContextRW{Seed: o.Seed}
	}
	if o.Test.Seed == 0 {
		o.Test.Seed = o.Seed
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// Result is the output of a FindNC run.
type Result struct {
	// Query echoes the input query nodes.
	Query []kg.NodeID
	// Context is the selected context, ranked by similarity.
	Context []topk.Item
	// Characteristics holds one record per tested label, sorted by
	// descending score, then ascending significance probability, then
	// name — notable labels first.
	Characteristics []Characteristic
}

// ContextIDs returns the context node IDs in rank order.
func (r Result) ContextIDs() []kg.NodeID {
	out := make([]kg.NodeID, len(r.Context))
	for i, it := range r.Context {
		out[i] = kg.NodeID(it.ID)
	}
	return out
}

// NotableOnly filters Characteristics down to the notable ones.
func (r Result) NotableOnly() []Characteristic {
	var out []Characteristic
	for _, c := range r.Characteristics {
		if c.Notable() {
			out = append(out, c)
		}
	}
	return out
}

// ByName returns the characteristic record for the named label.
func (r Result) ByName(name string) (Characteristic, bool) {
	for _, c := range r.Characteristics {
		if c.Name == name {
			return c, true
		}
	}
	return Characteristic{}, false
}

// PartialError reports a comparison stage cut short by cancellation while
// Options.Partial was set. The call that returned it also returned the
// characteristics completed before the cut — a prefix-consistent subset of
// what the uncut run would produce. Unwrap yields the ctx error
// (context.DeadlineExceeded or context.Canceled), so errors.Is still
// matches the cause.
type PartialError struct {
	// Cause is the ctx error that cut the stage short.
	Cause error
	// Tested and Total count the labels tested before the cut and the
	// labels the full stage would have tested.
	Tested, Total int
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("core: comparison cut short (%d/%d labels tested): %v", e.Tested, e.Total, e.Cause)
}

// Unwrap exposes the underlying ctx error to errors.Is.
func (e *PartialError) Unwrap() error { return e.Cause }

// FindNC runs the full pipeline on query against g. Cancellation is
// request-scoped: once ctx is done, FindNC stops within one PageRank
// sweep or one label test and returns ctx.Err() — or, under
// Options.Partial, the labels tested so far alongside a *PartialError
// when the cut landed in the comparison stage.
func FindNC(ctx context.Context, g *kg.Graph, query []kg.NodeID, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	selStart := time.Now()
	contexts := Contexts(ctx, g, [][]kg.NodeID{query}, opt, nil)
	if opt.Obs != nil {
		opt.Obs.Select.Observe(time.Since(selStart))
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := Result{Query: query, Context: contexts[0]}
	chars, err := CompareSets(ctx, g, query, res.ContextIDs(), opt)
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		return Result{}, err
	}
	res.Characteristics = chars
	return res, err
}

// FindNCBatch runs FindNC for every query in one batched pass. Context
// selection is one barriered Contexts call for the whole batch, so a
// selector with batch-wide kernels amortizes graph traversal across the
// cache misses; the comparison stages then fan out per query through the
// shared executor, up to Parallelism at once, each an independent
// CompareSets writing its own slot.
// Results are bitwise identical to calling FindNC per query for every
// batch size and Parallelism setting. A cancelled ctx stops every stage
// within one sweep or label test and returns ctx.Err().
func FindNCBatch(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	selStart := time.Now()
	contexts := Contexts(ctx, g, queries, opt, nil)
	if opt.Obs != nil {
		opt.Obs.Select.Observe(time.Since(selStart))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]Result, len(queries))
	var next atomic.Int64
	run := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(queries) {
				return
			}
			results[i] = Result{Query: queries[i], Context: contexts[i]}
			// The only possible error is ctx.Err(), reported once after the
			// fan drains; the partial slot is discarded with the batch.
			results[i].Characteristics, _ = CompareSets(ctx, g, queries[i], results[i].ContextIDs(), opt)
		}
	}
	workers := opt.Parallelism
	if workers > len(queries) {
		workers = len(queries)
	}
	exec.RunWorkersCtx(ctx, workers, run)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// cachedContextFloor is the smallest cut the selector layer stores, so
// one entry serves every default-sized request and any smaller one.
const cachedContextFloor = 100

// Contexts resolves every query's ranked context, exactly
// ctxsel.TopKFromScores of the selector's vector at opt.ContextSize,
// through the selector layer of opt.Cache: only the misses go to
// opt.Selector.Scores, in the caller's mode, and each miss's vector is cut
// once at max(k, cachedContextFloor), stored, and dropped. A hit is a
// private copy of the entry's first k items; an entry shorter than its
// cut holds every candidate and serves any k, while a larger k than a
// full entry holds solves again and replaces it (the lookup still counts
// as a hit). Entries are keyed by the query list as given (qcache.Key).
//
// ready == nil is the barriered call: it returns every context in query
// order, or nil once ctx is done. ready != nil is the streaming call:
// ready(i, items) fires once per query on the calling goroutine — hits at
// once, misses as the selector releases them — and the return value is
// nil. Once ctx is done nothing more is stored or released.
func Contexts(ctx context.Context, g *kg.Graph, queries [][]kg.NodeID, opt Options, ready func(i int, items []topk.Item)) [][]topk.Item {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	k := opt.ContextSize
	var out [][]topk.Item
	deliver := ready
	if ready == nil {
		out = make([][]topk.Item, len(queries))
		deliver = func(i int, items []topk.Item) { out[i] = items }
	}
	// The selector sees misses[j] = queries[idx[j]]; keys[j] is "" when
	// the query is not to be cached.
	var (
		idx    []int
		keys   []string
		misses [][]kg.NodeID
	)
	for i, q := range queries {
		var key string
		if opt.Cache != nil {
			key = qcache.Key(opt.Cache.SelectorPrefix, q)
		}
		if items, ok := opt.Cache.lookup(key, k); ok {
			deliver(i, items)
			continue
		}
		idx, keys, misses = append(idx, i), append(keys, key), append(misses, q)
	}
	if len(misses) == 0 {
		return out
	}
	cut := func(j int, scores []float64) (int, []topk.Item) {
		if keys[j] == "" {
			return idx[j], ctxsel.TopKFromScores(scores, misses[j], k)
		}
		r := &rankedContext{cut: max(k, cachedContextFloor)}
		r.items = ctxsel.TopKFromScores(scores, misses[j], r.cut)
		// 16 bytes per item, the key, and a fixed 96 for the cache's entry
		// and list element and the rankedContext.
		opt.Cache.Store.PutSized(keys[j], r, qcache.LayerSelector, 16*int64(len(r.items))+int64(len(keys[j]))+96)
		items, _ := r.prefix(k)
		return idx[j], items
	}
	if ready != nil {
		opt.Selector.Scores(ctx, g, misses, func(j int, scores []float64) {
			// One probe gates both: once ctx is done a context is neither
			// stored nor released, even if the selector did not look at ctx
			// before releasing its vector.
			if ctx.Err() == nil {
				deliver(cut(j, scores))
			}
		})
		return nil
	}
	scores := opt.Selector.Scores(ctx, g, misses, nil)
	if ctx.Err() != nil {
		return nil // cut short: vectors may be partial — neither stored nor usable
	}
	for j := range misses {
		deliver(cut(j, scores[j]))
	}
	return out
}

// rankedContext is one selector-layer entry: a query's context cut at
// cut items. Holding fewer items than cut means every candidate is here.
type rankedContext struct {
	items []topk.Item
	cut   int
}

// prefix returns a private copy of the entry's first k items, or ok =
// false when k exceeds a full entry — candidates past its cut may exist.
func (r *rankedContext) prefix(k int) (items []topk.Item, ok bool) {
	if n := len(r.items); k > n && n == r.cut {
		return nil, false
	}
	return slices.Clone(r.items[:max(min(k, len(r.items)), 0)]), true
}

// lookup serves k from the selector-layer entry under key ("" never
// hits, and is every key when c is nil), if there is one that can.
func (c *Cache) lookup(key string, k int) ([]topk.Item, bool) {
	if key == "" {
		return nil, false
	}
	if v, hit := c.Store.Get(key); hit {
		return v.(*rankedContext).prefix(k)
	}
	return nil, false
}

// testLabelHook, when non-nil, runs at the start of every label test — a
// test seam for cutting a comparison or timing it.
var testLabelHook func()

// CompareSets runs only the distribution-comparison stage (Section 3.2)
// against an explicit context set cset — used by FindNC, by experiments
// that reuse one context across parameter sweeps, and by the RWMult
// baseline.
//
// Labels are tested one after another on the calling goroutine, in
// LabelsOf order, reusing one distribution and test scratch. ctx is
// checked between labels: a cancelled request abandons the stage within
// one label test and returns ctx.Err().
//
// With opt.Cache the whole sorted report is one test-layer entry, keyed by
// the query multiset, the ranked context and every option that can change
// it, and stored packed (packedReport): a warm call is one lookup and a
// private unpacked copy, skipping even the label list. A done ctx skips
// the lookup; only a run that tested every label is stored.
func CompareSets(ctx context.Context, g *kg.Graph, query, cset []kg.NodeID, opt Options) ([]Characteristic, error) {
	if opt.Obs == nil {
		return compareSetsUntimed(ctx, g, query, cset, opt)
	}
	start := time.Now()
	out, err := compareSetsUntimed(ctx, g, query, cset, opt)
	opt.Obs.Compare.Observe(time.Since(start))
	return out, err
}

// compareSetsUntimed is CompareSets without the stage timer.
func compareSetsUntimed(ctx context.Context, g *kg.Graph, query, cset []kg.NodeID, opt Options) ([]Characteristic, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	var key string
	if opt.Cache != nil && ctx.Err() == nil {
		key = opt.Cache.testKey(query, cset, opt)
		if v, ok := opt.Cache.Store.GetLayer(key, qcache.LayerTest); ok {
			return v.(*packedReport).unpack(), nil
		}
	}
	out, err := testLabels(ctx, g, query, cset, opt)
	if key != "" && err == nil {
		if p := packReport(out); p != nil {
			opt.Cache.Store.PutSized(key, p, qcache.LayerTest, int64(len(key))+p.footprint())
		}
	}
	return out, err
}

// testLabels tests every label of query ∪ cset in order and returns the
// sorted report — or, once ctx is done, ctx.Err(), or under
// Partial the sorted prefix tested so far with a *PartialError.
func testLabels(ctx context.Context, g *kg.Graph, query, cset []kg.NodeID, opt Options) ([]Characteristic, error) {
	both := make([]kg.NodeID, 0, len(query)+len(cset))
	both = append(both, query...)
	both = append(both, cset...)
	labels := g.LabelsOf(both)
	if opt.SkipInverse {
		kept := labels[:0]
		for _, l := range labels {
			if !g.IsInverse(l) {
				kept = append(kept, l)
			}
		}
		labels = kept
	}

	out := make([]Characteristic, len(labels))
	var s labelScratch
	tested := 0
	for _, l := range labels {
		if ctx.Err() != nil {
			break
		}
		if testLabelHook != nil {
			testLabelHook()
		}
		out[tested] = testLabel(g, l, query, cset, opt.Test, opt.Policy, &s)
		tested++
	}
	if err := ctx.Err(); err != nil {
		if !opt.Partial {
			return nil, err
		}
		out = out[:tested]
		sortCharacteristics(out)
		return out, &PartialError{Cause: err, Tested: tested, Total: len(labels)}
	}
	sortCharacteristics(out)
	return out, nil
}

// sortCharacteristics orders records by descending score, then ascending
// significance probability, then name — the report order of every entry
// point, full or degraded.
func sortCharacteristics(out []Characteristic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		pa, pb := minP(a), minP(b)
		if pa != pb {
			return pa < pb
		}
		return a.Name < b.Name
	})
}

func minP(c Characteristic) float64 {
	if c.InstP < c.CardP {
		return c.InstP
	}
	return c.CardP
}

// labelScratch carries one comparison's reusable buffers across labels: the
// distribution builder's lookup state, the multinomial test's enumeration
// and sampling buffers, and the float conversion buffer of the
// cardinality π.
type labelScratch struct {
	dist   dist.Scratch
	test   stats.Scratch
	cardPi []float64
}

// TestKeyPrefix renders Cache.TestPrefix for tag (the graph epoch) and
// every option that can change a report — the test's Alpha, ExactLimit,
// Samples and Seed, Policy and SkipInverse — once per (epoch, options).
func TestKeyPrefix(tag string, opt Options) string {
	opt = opt.withDefaults()
	return fmt.Sprintf("mt|%s|a%v|el%d|mc%d|s%d|pol%d|inv%t|c",
		tag, opt.Test.Alpha, opt.Test.ExactLimit, opt.Test.Samples, opt.Test.Seed, opt.Policy, opt.SkipInverse)
}

// testKey is one request's test-layer key: the options prefix (rendered
// here when TestPrefix is empty), the ranked context hashed compactly, and
// the query as a sorted multiset. opt must already carry defaults.
func (c *Cache) testKey(query, cset []kg.NodeID, opt Options) string {
	prefix := c.TestPrefix
	if prefix == "" {
		prefix = TestKeyPrefix("", opt)
	}
	return qcache.MultisetKey(prefix+strconv.FormatUint(qcache.HashIDs(cset), 16), query)
}

// packedReport is one test-layer entry: a finished report in three
// arenas that share nothing with any caller. recs holds the records with
// their distribution slices nil; values holds every record's Inst.Values
// back to back; counts holds, per record in turn, the lengths of its five
// slices (Inst.Values, Inst.Query, Inst.Context, Card.Query,
// Card.Context; −1 for nil) and then the four count slices' entries.
type packedReport struct {
	recs   []Characteristic
	values []kg.NodeID
	counts []int32
}

// packReport packs report, or returns nil if a count overflows int32.
func packReport(report []Characteristic) *packedReport {
	var nv, nc int
	for _, c := range report {
		nv += len(c.Inst.Values)
		nc += 5 + len(c.Inst.Query) + len(c.Inst.Context) + len(c.Card.Query) + len(c.Card.Context)
	}
	p := &packedReport{recs: slices.Clone(report), values: make([]kg.NodeID, 0, nv), counts: make([]int32, 0, nc)}
	for i := range p.recs {
		c := &p.recs[i]
		p.values = append(p.values, c.Inst.Values...)
		p.counts = append(p.counts, sliceLen(c.Inst.Values))
		for _, s := range countSlices(c) {
			p.counts = append(p.counts, sliceLen(*s))
		}
		for _, s := range countSlices(c) {
			for _, v := range *s {
				if v != int(int32(v)) {
					return nil
				}
				p.counts = append(p.counts, int32(v))
			}
			*s = nil
		}
		c.Inst.Values = nil
	}
	return p
}

// unpack returns a private copy of the packed report in three
// allocations: the records, every Inst.Values, and every count slice.
// Each sub-slice is capped at its length, so an append to one
// reallocates rather than reaching its neighbour.
func (p *packedReport) unpack() []Characteristic {
	out := slices.Clone(p.recs)
	values := slices.Clone(p.values)
	counts := make([]int, len(p.counts)-5*len(out))
	src := p.counts
	for i := range out {
		c := &out[i]
		lens := src[:5]
		src = src[5:]
		if n := int(lens[0]); n >= 0 {
			c.Inst.Values, values = values[:n:n], values[n:]
		}
		for k, s := range countSlices(c) {
			n := int(lens[k+1])
			if n < 0 {
				continue
			}
			dst := counts[:n:n]
			for j, v := range src[:n] {
				dst[j] = int(v)
			}
			*s, counts, src = dst, counts[n:], src[n:]
		}
	}
	return out
}

// footprint is the entry's resident bytes for the cache's byte
// accounting: the records and the two arenas.
func (p *packedReport) footprint() int64 {
	n := int64(len(p.recs))*int64(unsafe.Sizeof(Characteristic{})) + 4*int64(len(p.values)) + 4*int64(len(p.counts))
	for _, c := range p.recs {
		n += int64(len(c.Name))
	}
	return n
}

// countSlices returns pointers to c's four count slices in packing order.
func countSlices(c *Characteristic) [4]*[]int {
	return [4]*[]int{&c.Inst.Query, &c.Inst.Context, &c.Card.Query, &c.Card.Context}
}

// sliceLen is len(s), or −1 for a nil slice.
func sliceLen[T any](s []T) int32 {
	if s == nil {
		return -1
	}
	return int32(len(s))
}

// testLabel builds both distributions for l and applies the multinomial
// test to each, combining scores per Eq. 3.
func testLabel(g *kg.Graph, l kg.LabelID, query, cset []kg.NodeID, test stats.Multinomial, policy dist.UnseenPolicy, s *labelScratch) Characteristic {
	c := Characteristic{Label: l, Name: g.LabelName(l)}
	c.Inst = dist.InstancesScratch(g, l, query, cset, &s.dist)
	c.Card = dist.Cardinalities(g, l, query, cset)

	// The raw count vectors go straight to the test, which normalizes π
	// internally; the observation vectors are only read.
	instCtx, instObs := c.Inst.TestVectorsScratch(policy, &s.dist)
	instRes := test.TestScratch(instCtx, instObs, &s.test)
	c.InstP = instRes.P

	s.cardPi = dist.ContextFloatsInto(s.cardPi[:0], c.Card.Context)
	cardRes := test.TestScratch(s.cardPi, c.Card.Query, &s.test)
	c.CardP = cardRes.P

	alpha := test.Alpha
	if alpha == 0 {
		alpha = stats.DefaultAlpha
	}
	if instRes.P <= alpha {
		c.InstScore = 1 - instRes.P
	}
	if cardRes.P <= alpha {
		c.CardScore = 1 - cardRes.P
	}
	c.Score = c.InstScore
	c.Kind = KindInstance
	if c.CardScore > c.InstScore {
		c.Score = c.CardScore
		c.Kind = KindCardinality
	}
	return c
}

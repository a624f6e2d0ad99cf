// Package notable is the public API of the notable-characteristics-search
// library, a reproduction of "Notable Characteristics Search through
// Knowledge Graphs" (Mottin et al., EDBT 2018).
//
// Given a knowledge graph and a small set of query entities, the library
// finds the context of the query — the entities most similar to it — and
// the notable characteristics: edge labels whose value or cardinality
// distribution over the query deviates significantly from the context's.
//
// Quick start:
//
//	b := notable.NewBuilder(64)
//	b.AddEdge("Angela Merkel", "studied", "Physics")
//	// ... more edges ...
//	g := b.Build()
//
//	engine := notable.NewEngine(g, notable.Options{ContextSize: 30})
//	query, err := engine.Resolve("Angela Merkel", "Barack Obama")
//	// handle err ...
//	res, err := engine.Do(ctx, notable.Query{Nodes: query})
//	for _, c := range res.NotableOnly() {
//	    fmt.Printf("%s (score %.2f, %s)\n", c.Name, c.Score, c.Kind)
//	}
//
// Graphs can be built programmatically (NewBuilder), loaded from triple
// files (LoadGraphFile), or restored from binary snapshots (ReadSnapshot).
//
// # Requests
//
// Serving is request-scoped. A Query carries the query nodes plus
// per-request overrides of the engine's Options (context size, selector,
// significance level, unseen-value policy, test samples, walks, damping,
// top-k cut) — zero values inherit the engine's defaults, so
// Query{Nodes: q} reproduces engine-level configuration exactly.
// Engine.Do serves one request, Engine.DoBatch a batch (amortizing the
// cold path across overlapping queries), and Engine.DoStream a batch as a
// stream of Outcomes that yields each result the moment it completes
// instead of barriering — the first result of an overlapping batch
// typically lands in a fraction of the batch's total wall-clock.
//
// Every entry point takes a context.Context and honors cancellation
// mid-request: a dropped request stops burning CPU within one PageRank
// sweep or one label test and returns ctx.Err(). Failures are typed —
// ErrEmptyQuery (errors.Is) and *UnresolvedError (errors.As) — never
// bare strings.
//
// # Caching and determinism
//
// An Engine memoizes three layers of repeated work in one LRU bounded by
// Options.CacheSize entries (optionally sharded via Options.CacheShards
// for concurrent traffic), whose big seed layer carries a fixed byte
// bound (SeedLayerBytes).
// The selector layer caches each query's ranked context (the best
// max(k, 100) nodes — never the score vector), so a warm query skips
// mining, walking and ranking; the comparison layer caches each request's
// finished report — every tested label's record, keyed by the query, the
// ranked context and the test options — so it also skips the label list,
// distribution building and multinomial testing: a fully warm repeated Do
// is two lookups and a copy of the cached values. The seed layer serves
// the interactive-refinement workload, where consecutive queries overlap
// rather than repeat: it keeps single-seed PageRank vectors, so adding or
// removing one entity from a RandomWalk-selected query re-solves only the
// new entity. CacheStats exposes hit/miss counters and resident bytes per
// layer.
//
// Cache entries are epoch-keyed: every key derived from graph state
// folds in the epoch of the view the request pinned, so an entry
// computed before an ApplyTriples bump is never served after it — a
// post-mutation query recomputes against the new graph, while re-running
// a query at an unchanged epoch still pure-hits. Entries of an epoch
// that has been superseded can never be addressed again, so publishing
// an epoch drops all three layers on the spot instead of leaving them to
// the LRU; a request still pinned to the old epoch recomputes, bit for
// bit. A no-op mutation batch keeps the epoch, and compaction keeps it
// too, so warm caches survive both.
//
// # Live mutation
//
// An Engine's graph is live: ApplyTriples(ctx, adds, dels) applies a
// triple batch — interning new nodes and labels on first sight — and
// publishes the result as a new epoch without rebuilding the base CSR
// or pausing traffic. Requests pin the epoch current when they start
// and run against it end to end, so concurrent Do/DoBatch/DoStream
// calls never observe a torn graph; results at any epoch are bitwise
// identical to a from-scratch engine on the equivalent graph. Past
// kg.DefaultCompactThreshold (4096) accumulated changes, a background
// compactor folds the overlay into a fresh flat base — same epoch, same
// bits, base-speed reads. Epoch, overlay sizes, and compaction counters
// are exposed via VersionStats; see docs/mutability.md for the model.
//
// # Batching and streaming
//
// DoBatch serves many independent queries in one pass over the cold
// pipeline: each query consults the cache first, the misses share one
// multi-source PageRank solve (each distinct seed across the batch is
// solved once, through the same per-seed fold as a single query), and
// the comparison stages fan out
// through a process-wide bounded executor, Options.Parallelism queries at
// a time. Batches of overlapping cold
// queries — eval sweeps, batch entity profiling, bursty traffic — run
// severalfold faster than sequential Do calls with identical output.
//
// DoStream runs the same deduplicated batch but runs each query's
// comparison stage as soon as its PageRank sum folds, on the stream's own
// goroutine, emitting results in completion order: time-to-first-result drops from "the
// whole batch" to roughly "one query", while per-query results stay
// bitwise identical to solo Do calls.
//
// # Serving
//
// Malformed requests fail fast with typed errors: ErrBadQuery (errors.Is)
// rejects out-of-range overrides — negative TopK, ContextSize, or
// TestSamples, Alpha outside (0, 1) — and node IDs past the pinned
// graph's NumNodes, naming the offending field, before any graph work
// runs. Query.Degrade opts a Do call into
// deadline-degraded mode: when its ctx expires during the comparison
// stage, the call returns the labels tested so far (always a
// prefix-consistent subset of the full report, each record bitwise equal
// to the full run's) together with a *DegradedError carrying
// tested/total counts, instead of discarding the work.
//
// cmd/ncserved serves the engine over HTTP — graceful drain on
// SIGTERM, per-request deadlines with degraded-by-default responses,
// panic isolation, and load shedding; see internal/server and
// docs/serving.md.
//
// Neither caching, batching, nor parallelism changes results: every
// randomized component takes an explicit seed, a search runs on its
// request's goroutine (PageRank solves one seed after another and folds
// in seed-list order; path mining draws its seeded walk streams in order;
// labels are tested one after another), DoBatch's fan-out compares each
// query independently into its own slot, and every batched stage
// replicates its sequential arithmetic, so every cache state, batch size,
// and worker count produces bitwise-identical output.
package notable

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctxsel"
	"repro/internal/dist"
	"repro/internal/kg"
	"repro/internal/metapath"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/ppr"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/topk"
	"repro/internal/wal"
)

// Re-exported graph types: the kg package is internal, the facade exposes
// what callers need.
type (
	// Graph is an immutable labeled knowledge graph.
	Graph = kg.Graph
	// Builder constructs graphs.
	Builder = kg.Builder
	// NodeID identifies a graph node.
	NodeID = kg.NodeID
	// LabelID identifies an edge label.
	LabelID = kg.LabelID
	// Result is a completed search: context plus tested characteristics.
	Result = core.Result
	// Characteristic is the per-label test record.
	Characteristic = core.Characteristic
	// ContextItem is a scored context node.
	ContextItem = topk.Item
	// Triple is one (subject, predicate, object) fact for ApplyTriples.
	Triple = kg.Triple
	// VersionStats summarizes the engine's live-graph store: epoch,
	// overlay triple counts, compaction counters.
	VersionStats = kg.VersionedStats
)

// Selector names accepted by Options.Selector.
const (
	SelectorContextRW  = "contextrw"
	SelectorRandomWalk = "randomwalk"
	SelectorSimRank    = "simrank"
	SelectorJaccard    = "jaccard"
)

// UnseenPolicy values for Options.Policy.
const (
	// PolicyStrict is the paper's formula: query values the context never
	// shows are maximally notable.
	PolicyStrict = "strict"
	// PolicyPooled pools idiosyncratic values; see the dist package for
	// when this matters.
	PolicyPooled = "pooled"
)

// NewBuilder returns a graph builder with capacity hints for nEdges edges.
func NewBuilder(nEdges int) *Builder { return kg.NewBuilder(nEdges) }

// Options configures an Engine. The zero value reproduces the paper's
// defaults: ContextRW selection, context size 100, significance 0.05,
// strict unseen-value policy. Reports never carry the auto-generated
// inverse labels (l⁻¹): the paper's figures show forward labels only.
type Options struct {
	// ContextSize is k, the number of context nodes (default 100).
	ContextSize int
	// Selector is one of the Selector* constants (default ContextRW).
	Selector string
	// Walks is the PathMining budget for ContextRW (default
	// DefaultWalks). Every query of a graph epoch reads the first Walks
	// walks of one walk bank, built by the epoch's first ContextRW read,
	// so Walks sizes that bank. A request may lower it via Query.Walks,
	// never raise it.
	Walks int
	// Damping is the RandomWalk selector's PageRank restart parameter c
	// (default 0.8; the paper also reports 0.2 for the baseline). Only
	// the randomwalk selector consults it. Overridable per request via
	// Query.Damping.
	Damping float64
	// Alpha is the significance level (default 0.05).
	Alpha float64
	// Policy is PolicyStrict or PolicyPooled (default strict).
	Policy string
	// Seed drives all randomized components (default 1).
	Seed int64
	// Parallelism bounds how many queries of one DoBatch are compared at
	// once through the shared executor; 0 means the core default (4).
	// Every other request runs on its caller's goroutine. It never
	// changes results, only wall-clock.
	Parallelism int
	// CacheSize bounds the engine's query cache: the number of memoized
	// entries across all three cache layers — ranked selector contexts,
	// comparison reports (one per query and context), and per-seed
	// PageRank vectors (see internal/qcache).
	// 0 selects DefaultCacheSize; negative disables caching. Caching never
	// changes results — every randomized component is seeded — it only
	// skips repeated work: a warm repeat of a query skips metapath mining,
	// walking, distribution building, and multinomial testing entirely,
	// and an overlapping query re-solves only its new seeds. The big seed
	// layer is further bounded by bytes: SeedLayerBytes.
	CacheSize int
	// TestSamples overrides the cap on the multinomial test's Monte-Carlo
	// sample count (default 20000). A test stops sampling once 100 samples
	// are at most as likely as the observation, so only a test with P
	// below about 100/TestSamples reaches the cap; a lower cap coarsens
	// exactly those p-values. Results remain deterministic for any value.
	TestSamples int
	// TestExactLimit overrides the outcome-composition count up to which
	// the test enumerates exactly instead of sampling (default 200000).
	TestExactLimit int
	// CacheShards splits the query cache into 2^⌈log₂ shards⌉
	// shared-nothing shards (per-shard lock and LRU, entry cap and layer
	// byte bounds split evenly) to cut mutex pressure under concurrent
	// serving traffic. 0 or 1 keeps the single exact LRU — the default,
	// whose byte-bound enforcement is exact; see internal/qcache for the
	// (slight) slack sharding introduces.
	CacheShards int
}

// DefaultCacheSize is the query-cache capacity used when Options.CacheSize
// is zero. A warm query occupies two entries — its ranked context and its
// comparison report — so size CacheSize to roughly 2 × (hot queries) plus
// the seed entries; the default keeps about 500 fully-warm queries.
// Selector and test entries are small (a few KB at most); the big seed
// vectors are bounded by bytes as well: SeedLayerBytes.
const DefaultCacheSize = 1024

// DefaultWalks is the ContextRW walk budget when Options.Walks is 0.
const DefaultWalks = 200000

// SeedLayerBytes bounds the seed layer: single-seed PageRank vectors
// memoized across RandomWalk searches, so a query overlapping an earlier
// one — interactive refinement — solves only its new entities. A vector
// weighs up to 8 bytes per graph node (less while a solve stays
// frontier-sparse), so 64 MiB keeps tens of hot entities resident on
// million-node graphs without letting an entity sweep displace the rest
// of the cache.
const SeedLayerBytes = 64 << 20

// Engine runs searches against one live graph. Create with NewEngine;
// safe for concurrent use once constructed, including concurrent
// ApplyTriples: every request pins the epoch-stamped view current when
// it started and runs against it end to end, so a mutation landing
// mid-request never tears a result.
type Engine struct {
	vg    *kg.Versioned
	idx   atomic.Pointer[search.Index]
	opt   Options
	cache *qcache.Cache
	// wal is the write-ahead log behind a durable engine (nil otherwise;
	// see NewDurableEngine). Armed only after recovery replay, so the
	// replayed batches — already in the log — are not logged again.
	wal atomic.Pointer[wal.Log]
	// ingestMu orders durable ingest: the epoch sequence the store
	// publishes must enter the log in the same order, so Apply and Append
	// happen under one lock (commit waits happen outside it).
	ingestMu sync.Mutex
	// walLogf receives checkpoint-failure lines (durable engines only).
	walLogf func(format string, args ...any)
	// recovered is the boot-time replay count, for observability;
	// skippedCkpts counts checkpoint files boot recovery discarded.
	recovered    int
	skippedCkpts int
	// selMemo caches the request-derived state — the core options with
	// their selector and both cache-key prefixes — for one (epoch,
	// effective options) pair, so the steady-state serving path (same
	// options, unchanged graph) builds no strings per request. Misses (an
	// epoch bump or an override mix) just rebuild; correctness never
	// depends on a hit.
	selMemo atomic.Pointer[optState]
	// met is the engine's always-on metrics bundle: per-stage and
	// end-to-end latency histograms registered once here so the serving
	// hot path pays only atomic adds. Exposed via Metrics().
	met *engineMetrics
}

// engineMetrics holds the engine's latency histograms and their
// registry. The histogram pointers are per-engine constants — threaded
// into ppr/core/wal options at request-translation time — so the
// selMemo'd selector stays valid and no request ever consults the
// registry.
type engineMetrics struct {
	reg      *obs.Registry
	solve    *obs.Histogram // nc_stage_seconds{stage="ppr_solve"}
	sel      *obs.Histogram // nc_stage_seconds{stage="ctx_select"}
	compare  *obs.Histogram // nc_stage_seconds{stage="compare"}
	bank     *obs.Histogram // nc_stage_seconds{stage="mine_bank_build"}
	stage    *core.StageObs // sel+compare, threaded via core.Options.Obs
	do       *obs.Histogram // nc_request_seconds{op="do"}
	doBatch  *obs.Histogram // nc_request_seconds{op="do_batch"}
	doStream *obs.Histogram // nc_request_seconds{op="do_stream"}
	ingest   *obs.Histogram // nc_ingest_seconds
	fsync    *obs.Histogram // nc_wal_fsync_seconds
}

func newEngineMetrics() *engineMetrics {
	reg := obs.NewRegistry()
	const stageHelp = "Pipeline stage latency in seconds."
	const reqHelp = "End-to-end engine request latency in seconds."
	m := &engineMetrics{
		reg:      reg,
		solve:    reg.NewHistogram("nc_stage_seconds", stageHelp, "stage", "ppr_solve"),
		sel:      reg.NewHistogram("nc_stage_seconds", stageHelp, "stage", "ctx_select"),
		compare:  reg.NewHistogram("nc_stage_seconds", stageHelp, "stage", "compare"),
		bank:     reg.NewHistogram("nc_stage_seconds", stageHelp, "stage", "mine_bank_build"),
		do:       reg.NewHistogram("nc_request_seconds", reqHelp, "op", "do"),
		doBatch:  reg.NewHistogram("nc_request_seconds", reqHelp, "op", "do_batch"),
		doStream: reg.NewHistogram("nc_request_seconds", reqHelp, "op", "do_stream"),
		ingest:   reg.NewHistogram("nc_ingest_seconds", "ApplyTriples ingest latency in seconds."),
		fsync:    reg.NewHistogram("nc_wal_fsync_seconds", "WAL fsync latency in seconds (durable engines only)."),
	}
	m.stage = &core.StageObs{Select: m.sel, Compare: m.compare}
	return m
}

// Metrics returns the engine's metrics registry — stage histograms
// (ppr_solve, ctx_select, compare, mine_bank_build), end-to-end request
// histograms, ingest and WAL-fsync latency, and the cache, graph, walk
// bank and WAL state series — for exposition alongside a server's own
// registry (internal/server renders both on GET /metrics and GET /statsz).
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// registerState adds the engine's point-in-time state to its registry as
// scrape-time series read through CacheStats, VersionStats and
// DurabilityStats: query-cache traffic and residency, the live graph's
// epoch and compaction counters, and the write-ahead log. Nothing is
// added to the request or ingest path.
func (e *Engine) registerState() {
	reg := e.met.reg
	for l, layer := range qcache.LayerNames {
		reg.NewCounterFunc("nc_cache_hits_total", "Query-cache hits, by layer.",
			func() float64 { return float64(e.CacheStats().Layers[l].Hits) }, "layer", layer)
		reg.NewCounterFunc("nc_cache_misses_total", "Query-cache misses, by layer.",
			func() float64 { return float64(e.CacheStats().Layers[l].Misses) }, "layer", layer)
		reg.NewGaugeFunc("nc_cache_bytes", "Resident query-cache bytes (size hints), by layer.",
			func() float64 { return float64(e.CacheStats().Layers[l].Bytes) }, "layer", layer)
		reg.NewGaugeFunc("nc_cache_layer_budget_bytes", "Query-cache byte budget, by layer (0 = none).",
			func() float64 { return float64(e.CacheStats().Layers[l].ByteBudget) }, "layer", layer)
	}
	reg.NewGaugeFunc("nc_cache_entries", "Query-cache entries resident.",
		func() float64 { return float64(e.CacheStats().Size) })
	reg.NewGaugeFunc("nc_cache_capacity_entries", "Query-cache entry bound.",
		func() float64 { return float64(e.CacheStats().Capacity) })
	reg.NewGaugeFunc("nc_cache_shards", "Query-cache shards.",
		func() float64 { return float64(e.CacheStats().Shards) })
	reg.NewCounterFunc("nc_cache_evictions_total", "Query-cache entries evicted to make room.",
		func() float64 { return float64(e.CacheStats().Evictions) })
	reg.NewCounterFunc("nc_cache_purged_total", "Query-cache entries dropped by epoch purges.",
		func() float64 { return float64(e.CacheStats().Purged) })

	reg.NewGaugeFunc("nc_graph_epoch", "Current graph epoch.",
		func() float64 { return float64(e.VersionStats().Epoch) })
	reg.NewGaugeFunc("nc_graph_overlay_adds", "Edges added in the overlay since the last base rebuild.",
		func() float64 { return float64(e.VersionStats().OverlayAdds) })
	reg.NewGaugeFunc("nc_graph_overlay_dels", "Edges deleted in the overlay since the last base rebuild.",
		func() float64 { return float64(e.VersionStats().OverlayDels) })
	reg.NewCounterFunc("nc_graph_rebuilds_total", "Base CSR rebuilds (compactions) completed.",
		func() float64 { return float64(e.VersionStats().Rebuilds) })
	reg.NewGaugeFunc("nc_graph_last_compaction_seconds", "Duration of the most recent compaction (0 if none).",
		func() float64 { return e.VersionStats().LastCompaction.Seconds() })
	reg.NewGaugeFunc("nc_graph_compacting", "1 while a background compaction runs.",
		func() float64 { return obs.Bool(e.VersionStats().Compacting) })
	reg.NewGaugeFunc("nc_mine_bank_bytes", "Bytes of the ContextRW walk bank the current graph epoch holds (0 until its first ContextRW read).",
		func() float64 { return float64(metapath.BankBytes(e.vg.View().G)) })

	reg.NewGaugeFunc("nc_wal_enabled", "1 when the engine has a write-ahead log.",
		func() float64 { return obs.Bool(e.DurabilityStats().Enabled) })
	reg.NewGaugeFunc("nc_wal_bytes", "Size of the current log file.",
		func() float64 { return float64(e.DurabilityStats().WALBytes) })
	reg.NewGaugeFunc("nc_wal_records", "Records in the current log file.",
		func() float64 { return float64(e.DurabilityStats().WALRecords) })
	reg.NewGaugeFunc("nc_wal_last_fsync_seconds", "Duration of the most recent log fsync.",
		func() float64 { return e.DurabilityStats().LastFsync.Seconds() })
	reg.NewGaugeFunc("nc_wal_checkpoint_epoch", "Epoch of the newest durable checkpoint.",
		func() float64 { return float64(e.DurabilityStats().CheckpointEpoch) })
	reg.NewGaugeFunc("nc_wal_recovered_records", "Log records boot recovery replayed.",
		func() float64 { return float64(e.DurabilityStats().RecoveredRecords) })
	reg.NewGaugeFunc("nc_wal_snapshots_skipped", "Unreadable checkpoint files boot recovery discarded.",
		func() float64 { return float64(e.DurabilityStats().SkippedCheckpoints) })
	reg.NewGaugeFunc("nc_wal_durable_epoch", "Newest epoch guaranteed to survive a crash (0 without a log).",
		func() float64 {
			de, _ := e.DurableEpoch() // ErrNotDurable: no log, report 0
			return float64(de)
		})
}

// optState is one memoized translation of effective options at an epoch.
type optState struct {
	epoch uint64
	opt   Options
	copt  core.Options
}

// typePredicate is the predicate whose triples assign node types instead
// of edges, both in LoadGraphFile and in ApplyTriples.
const typePredicate = "type"

// NewEngine prepares an engine (including the entity-name index) for g,
// which becomes epoch 0 of the engine's live graph store. Applied
// triples live only in memory; NewDurableEngine adds a write-ahead log
// so acknowledged batches survive process death.
func NewEngine(g *Graph, opt Options) *Engine {
	return newEngine(g, opt, 0, newEngineMetrics())
}

// newEngine is the shared constructor: g becomes epoch startEpoch of the
// live store (non-zero only when recovering from a checkpoint), and met
// its metrics bundle (built before the WAL opens for durable engines, so
// the log's fsyncs land in it from the start).
func newEngine(g *Graph, opt Options, startEpoch uint64, met *engineMetrics) *Engine {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	size := opt.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	cfg := qcache.Config{Capacity: size, Shards: opt.CacheShards}
	cfg.LayerBudgets[qcache.LayerSeed] = SeedLayerBytes
	e := &Engine{
		opt:   opt,
		cache: qcache.NewSharded(cfg),
		met:   met,
	}
	e.vg = kg.NewVersioned(g, kg.VersionedOptions{
		TypePredicate: typePredicate,
		StartEpoch:    startEpoch,
		// Compaction produces exactly what a checkpoint wants — a flat
		// graph at a known epoch — so durable engines piggyback on it. A
		// no-op for non-durable engines (wal stays nil).
		OnCompact: e.checkpointView,
	})
	e.idx.Store(search.NewIndex(g))
	e.registerState()
	return e
}

// ApplyTriples applies a mutation batch — dels first, then adds — and
// publishes the result as a new graph epoch, without rebuilding the base
// CSR or interrupting traffic: requests in flight finish on the epoch
// they pinned, requests arriving afterwards see the new graph. Deletes
// remove an edge and its inverse mirror (unknown names and absent edges
// are no-ops); adds intern new nodes and labels on first sight; triples
// whose predicate is "type" assign node types, as in LoadGraphFile. A
// batch with no effect keeps the current epoch, so warm caches stay
// warm. Returns the epoch now current.
//
// Results at the new epoch are exactly those of a graph rebuilt from
// scratch with the mutation applied — cache layers are epoch-keyed, and
// the superseded epoch's entries are dropped as the new one is
// published, so nothing stale is ever served — and when the accumulated
// overlay crosses kg.DefaultCompactThreshold (4096 applied adds and
// deletes) a background compactor folds it into a fresh base without changing the epoch or any result bits.
//
// On a durable engine (NewDurableEngine), an effective batch is appended
// to the write-ahead log and fsync'd (per the configured sync policy)
// before ApplyTriples returns: a nil error means the batch survives
// process death. A WAL failure returns an error wrapping ErrDurability —
// the in-memory epoch may already include the batch, but it was never
// acknowledged as durable, and the engine refuses further ingest until
// restarted (searches continue unharmed).
func (e *Engine) ApplyTriples(ctx context.Context, adds, dels []Triple) (uint64, error) {
	start := time.Now()
	epoch, err := e.applyTriples(ctx, adds, dels)
	e.met.ingest.Observe(time.Since(start))
	return epoch, err
}

// applyTriples is ApplyTriples without the ingest timer.
func (e *Engine) applyTriples(ctx context.Context, adds, dels []Triple) (uint64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return e.vg.View().Epoch, err
		}
	}
	l := e.wal.Load()
	var commit wal.Commit
	if l != nil {
		e.ingestMu.Lock()
	}
	before := e.vg.View().Epoch
	view, err := e.vg.Apply(adds, dels)
	if err == nil && l != nil && view.Epoch != before {
		// Effective batch: log it at its post-apply epoch while still
		// holding ingestMu, so log order always equals epoch order. The
		// fsync wait (commit) happens after unlock — concurrent batches
		// share fsyncs instead of serializing on the disk.
		commit, err = l.Append(wal.Record{Epoch: view.Epoch, Adds: adds, Dels: dels})
		if err != nil {
			err = fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	if l != nil {
		e.ingestMu.Unlock()
	}
	// The engine's half of an epoch bump — also when logging the batch
	// failed, the store has published it: index the nodes the batch
	// interned so Resolve/Suggest see them (names are immutable and IDs
	// append-only, nothing already indexed changes), and drop the cache
	// entries of the superseded epoch.
	if view != nil && view.Epoch != before {
		e.idx.Load().Extend(view.G)
		e.purgeEpochKeyed()
	}
	if err != nil {
		if view == nil {
			return e.vg.View().Epoch, fmt.Errorf("%w: %v", ErrBadTriple, err)
		}
		return view.Epoch, err
	}
	if commit != nil {
		if cerr := commit(); cerr != nil {
			return view.Epoch, fmt.Errorf("%w: %v", ErrDurability, cerr)
		}
	}
	return view.Epoch, nil
}

// purgeEpochKeyed drops the three cache layers, all keyed by graph epoch,
// run wherever an epoch is published: no later request can address the
// old epoch's entries (see "Caching and determinism").
func (e *Engine) purgeEpochKeyed() {
	e.cache.Purge(qcache.LayerSelector, qcache.LayerTest, qcache.LayerSeed)
}

// Epoch returns the current graph epoch: 0 at construction, +1 per
// effective ApplyTriples batch.
func (e *Engine) Epoch() uint64 { return e.vg.View().Epoch }

// VersionStats summarizes the live graph store: current epoch, overlay
// add/delete counts since the last base rebuild, completed rebuilds, and
// the last compaction's duration.
func (e *Engine) VersionStats() VersionStats { return e.vg.Stats() }

// CacheStats reports the query cache's counters, aggregated over all
// shards and broken down per layer (Stats.Layers): the selector layer
// (one ranked context per query, 16 bytes per item), the comparison layer
// (one finished report per query, context and test options), the seed
// layer (one PageRank vector per hot entity). A fully warm repeated Do
// performs exactly one selector hit and one comparison hit and zero
// misses; a refinement step shows seed-layer hits for the retained
// entities. A cache-disabled engine reports zeros.
func (e *Engine) CacheStats() qcache.Stats { return e.cache.Stats() }

// Graph returns the engine's current graph — the epoch published by the
// latest effective ApplyTriples, or the construction graph before any.
// The returned graph is immutable; later mutations publish new graphs
// and never touch one already handed out.
func (e *Engine) Graph() *Graph { return e.vg.View().G }

// Resolve maps entity names (exact or fuzzy) to node IDs. Names that
// match nothing are reported through an *UnresolvedError carrying the
// missing names (recover it with errors.As for did-you-mean handling).
func (e *Engine) Resolve(names ...string) ([]NodeID, error) {
	ids, missing := e.index().Resolve(names)
	if len(missing) > 0 {
		return ids, &UnresolvedError{Missing: missing}
	}
	return ids, nil
}

// Suggest returns up to limit candidate entities for a mention.
func (e *Engine) Suggest(mention string, limit int) []search.Hit {
	return e.index().Lookup(mention, limit)
}

// index returns the name index, caught up with the published view.
// Ingest extends the index right after the store publishes an epoch; a
// reader that observed the new epoch inside that gap extends it here
// instead, so resolution never lags an epoch a reader has already seen.
func (e *Engine) index() *search.Index {
	idx := e.idx.Load()
	if view := e.vg.View(); idx.NumNodes() < view.G.NumNodes() {
		idx.Extend(view.G)
	}
	return idx
}

// epochTag renders a view's epoch as the cache tag folded into every
// graph-derived cache key, so entries computed against one epoch are
// never served at another.
func epochTag(view *kg.View) string {
	return "e" + strconv.FormatUint(view.Epoch, 10)
}

// selectorFor instantiates the context selector configured by opt — the
// engine's options with any per-request overrides already applied — for
// the pinned view's epoch tag, which keys the seed-vector cache.
func (e *Engine) selectorFor(opt Options, tag string) ctxsel.Selector {
	switch opt.Selector {
	case SelectorRandomWalk:
		return ctxsel.RandomWalk{Opt: ppr.Options{
			Damping:   opt.Damping,
			SeedCache: e.cache,
			CacheTag:  tag,
			SolveObs:  e.met.solve,
		}}
	case SelectorSimRank:
		return ctxsel.SimRank{}
	case SelectorJaccard:
		return ctxsel.Jaccard{}
	default:
		// A request reads a prefix of the bank built at the engine's own
		// budget, so lower per-request Walks never rebuild it.
		return ctxsel.ContextRW{Walks: opt.Walks, BankWalks: e.maxWalks(), Seed: opt.Seed, BuildObs: e.met.bank}
	}
}

// coreOptionsFor translates opt — the engine's options with any
// per-request overrides already applied — into the core pipeline's
// options, for a request pinned to view. The caches stay engine-level:
// overrides never fork cache state, they only reconfigure one request's
// pipeline, and the view's epoch rides in every cache key so entries
// from different graph versions never mix.
//
// The translation is memoized per (epoch, opt) and rebuilt on any miss.
// Both key prefixes fold the epoch: the selector layer's every effective
// option that can change a score vector (selector, Walks, Damping, Seed),
// the test layer's every one that can change a report (core.TestKeyPrefix).
func (e *Engine) coreOptionsFor(opt Options, view *kg.View) core.Options {
	if st := e.selMemo.Load(); st != nil && st.epoch == view.Epoch && st.opt == opt {
		return st.copt
	}
	policy := dist.UnseenStrict
	if opt.Policy == PolicyPooled {
		policy = dist.UnseenPooled
	}
	tag := epochTag(view)
	copt := core.Options{
		ContextSize: opt.ContextSize,
		Selector:    e.selectorFor(opt, tag),
		Test: stats.Multinomial{
			Alpha:      opt.Alpha,
			Seed:       opt.Seed,
			Samples:    opt.TestSamples,
			ExactLimit: opt.TestExactLimit,
		},
		SkipInverse: true,
		Policy:      policy,
		Parallelism: opt.Parallelism,
		Seed:        opt.Seed,
		Obs:         e.met.stage,
	}
	if e.cache != nil {
		copt.Cache = &core.Cache{Store: e.cache, TestPrefix: core.TestKeyPrefix(tag, copt),
			SelectorPrefix: fmt.Sprintf("%s|%s|w%d|d%v|s%d", copt.Selector.Name(), tag, opt.Walks, opt.Damping, opt.Seed)}
	}
	e.selMemo.Store(&optState{epoch: view.Epoch, opt: opt, copt: copt})
	return copt
}

// Context returns only the top-k similar nodes for a query, against the
// current graph epoch, through the same selector layer as Do. A k ≤ 0, or
// a query naming a node ID the graph does not have, selects nothing.
func (e *Engine) Context(query []NodeID, k int) []ContextItem {
	view := e.vg.View()
	if k <= 0 || checkNodes(view.G, "query", query) != nil {
		return []ContextItem{}
	}
	copt := e.coreOptionsFor(e.opt, view)
	copt.ContextSize = k
	return core.Contexts(context.Background(), view.G, [][]NodeID{query}, copt, nil)[0]
}

// LoadGraph reads triples (N-Triples subset or TSV) from r and builds a
// graph. Triples whose predicate equals typePredicate become node types;
// pass "" to keep them as edges. Node IDs follow first appearance in r,
// subject before object (type objects are nodes too); label and type IDs
// follow the statements sorted by (subject, predicate, object) in those
// IDs, predicates ranked by first appearance — see kg.ReadTriples.
func LoadGraph(r io.Reader, typePredicate string) (*Graph, error) {
	rd := ntriples.NewReader(r)
	g, err := kg.ReadTriples(func() (kg.Triple, error) {
		st, err := rd.Read()
		return kg.Triple(st), err
	}, typePredicate)
	if err != nil {
		return nil, fmt.Errorf("notable: loading triples: %w", err)
	}
	return g, nil
}

// LoadGraphFile loads a graph from a file path: binary snapshots (written
// by SaveSnapshotFile) are detected by the .kgsnap extension or — so a
// renamed snapshot loads rather than failing as a triple parse — by
// sniffing the snapshot magic bytes; anything else parses as triples with
// "type" as the type predicate.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".kgsnap") {
		// Fast path: the canonical extension skips the sniff.
		return kg.ReadSnapshot(f)
	}
	br := bufio.NewReader(f)
	if head, err := br.Peek(len(kg.SnapshotMagic)); err == nil && string(head) == kg.SnapshotMagic {
		return kg.ReadSnapshot(br)
	}
	return LoadGraph(br, typePredicate)
}

// SaveSnapshotFile writes the graph's binary snapshot to path.
func SaveSnapshotFile(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot restores a graph from a binary snapshot stream.
func ReadSnapshot(r io.Reader) (*Graph, error) { return kg.ReadSnapshot(r) }

package main

// The declarations every other file emits against: the four workloads and
// the metric names with their units. BENCHMARK.json at the repository root
// repeats them (with direction and regression bound); bench_test.go pins
// the two to each other, so a metric cannot be emitted undeclared.

// Load shape shared by all workloads.
const (
	numClients = 2 // closed loop, one keep-alive connection each
	contextK   = 100
	walks      = 200000
	shards     = 8
	poolType   = "actor" // entity pool: the generated graph's actor nodes
	// ambientBig scales the distractor population of G_big past ppr's
	// 2^19-edge threshold, so the blocked multi-vector gather kernel runs.
	ambientBig = 24
	// graphSeed generates the knowledge graph. The graph is the system's
	// dataset, not a request: --seed draws the requests (and seeds the
	// engine), so runs under different seeds measure the same system on
	// different samples of traffic and their spread is measurement noise,
	// not a different graph's cost profile.
	graphSeed = 1
	// qualitySeed seeds the engine of the context_f1 probe: quality is a
	// property of the code, so it must not move with --seed.
	qualitySeed = 1
)

type selectorKind string

const (
	selContextRW  selectorKind = "contextrw"
	selRandomWalk selectorKind = "randomwalk"
)

// workloadSpec is one traffic mix. The why strings are the one-line reasons
// BENCHMARK.json records.
type workloadSpec struct {
	Name     string
	Why      string
	Big      bool         // G_big instead of G_small
	Selector selectorKind // engine default selector
	Durable  bool         // NewDurableEngine over a WAL dir, SyncEveryBatch
	Hot      int          // size of the pre-built hot query set (0 = none)
	Prewarm  bool         // answer the hot set once during set-up
	// SampleEvery keeps every n-th response of a client for the
	// correctness gate; chosen so a window yields well over 32 samples.
	SampleEvery int
}

var workloads = []workloadSpec{
	{
		Name:     "explore_contextrw",
		Why:      "cold ContextRW searches on distinct actor sets: metapath mining and Monte-Carlo tests do the work, caches and ppr none",
		Selector: selContextRW, SampleEvery: 8,
	},
	{
		Name:     "session_randomwalk",
		Why:      "5-step sessions on the 637k-edge graph (cold pair, two refines, stream sweep, batch sweep): ppr and kg gather kernels used four ways",
		Big:      true,
		Selector: selRandomWalk, SampleEvery: 3,
	},
	{
		Name:     "serve_warm",
		Why:      "Zipf(1.2) repeats over a pre-warmed hot set: every pipeline layer is bypassed, so server, facade and qcache are the whole cost",
		Selector: selContextRW, Hot: 128, Prewarm: true, SampleEvery: 256,
	},
	{
		Name:     "ingest_read",
		Why:      "durable ingest beside hot-set reads: every 4th op is a WAL-fsynced batch that bumps the epoch and invalidates every cache layer",
		Selector: selRandomWalk, Durable: true, Hot: 16, SampleEvery: 16,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct{ Name, Unit string }

// endToEnd is what a caller of the served system sees. Every workload
// reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p75_ms", "ms"},
	{"answer_p50_ms", "ms"},
	{"answer_p75_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"context_f1", "ratio"},
}

// perLayer names are <module>.<metric>. A stage the workload's requests
// never reach reads 0 (no work was done there); README.md has the table of
// which end-to-end metric each should move on which workload.
var perLayer = []metricSpec{
	{"client.search_p99_ms", "ms"},
	{"client.sweep_p50_ms", "ms"},
	{"client.sweep_p90_ms", "ms"},
	{"client.ttfr_p50_ms", "ms"},
	{"client.ingest_p50_ms", "ms"},
	{"client.ingest_p90_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.resp_bytes_per_req", "B"},
	{"server.shed_count", "count"},
	{"notable.do_warm_us", "us"},
	{"notable.do_cold_ms", "ms"},
	{"notable.facade_residual_ms", "ms"},
	{"search.resolve_us", "us"},
	{"qcache.selector_hits", "count"},
	{"qcache.selector_lookups", "count"},
	{"qcache.test_hits", "count"},
	{"qcache.test_lookups", "count"},
	{"qcache.seed_hits", "count"},
	{"qcache.seed_lookups", "count"},
	{"qcache.null_hits", "count"},
	{"qcache.null_lookups", "count"},
	{"qcache.evictions", "count"},
	{"qcache.bytes", "B"},
	{"metapath.mine_ms", "ms"},
	{"metapath.paths_mined", "count"},
	{"metapath.walks_per_s", "1/s"},
	{"ctxsel.score_ms", "ms"},
	{"ctxsel.topk_us", "us"},
	{"ppr.solve_ms", "ms"},
	{"ppr.multi_solve_ms", "ms"},
	{"ppr.stream_first_ms", "ms"},
	{"kg.gather_ns_per_edge", "ns"},
	{"kg.gather_multi_ns_per_edge_col", "ns"},
	{"kg.transitions_build_ms", "ms"},
	{"kg.apply_us", "us"},
	{"kg.compact_ms", "ms"},
	{"kg.compactions", "count"},
	{"kg.snapshot_write_ms", "ms"},
	{"kg.snapshot_read_ms", "ms"},
	{"core.compare_ms", "ms"},
	{"core.labels_tested", "count"},
	{"dist.build_us_per_label", "us"},
	{"stats.test_us_per_label", "us"},
	{"stats.mc_share", "ratio"},
	{"exec.inline_runs", "count"},
	{"exec.busy_peak", "count"},
	{"wal.append_commit_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_triple", "B"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_ms", "ms"},
	{"obs.stage_ctx_select_ms", "ms"},
	{"obs.stage_compare_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

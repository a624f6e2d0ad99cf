package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	notable "repro"
	"repro/internal/core"
	"repro/internal/ctxsel"
	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/kg"
	"repro/internal/metapath"
	"repro/internal/obs"
	"repro/internal/ppr"
	"repro/internal/qcache"
	"repro/internal/stats"
	"repro/internal/topk"
	"repro/internal/wal"
)

// Replay sample sizes: what fits the traced pass's time budget on the
// 637k-edge graph while leaving each mean a dozen or more observations.
const (
	replayCold   = 24 // requests replayed cold, three ways each
	replayWarm   = 8  // distinct queries of the warm replay …
	warmRepeats  = 12 // … each repeated this often, two ways
	labelQueries = 8  // replayed queries whose labels are timed one by one
	kernelReps   = 3  // repeats of the heavy graph kernels
	probeBatches = 20 // ingest batches applied to the private store and log
	// replayClient keeps the replay's request stream apart from the
	// measured clients' streams.
	replayClient = numClients
)

// scrape renders registries the way GET /metrics does and returns every
// sample line as series → value, so the benchmark reads the same series an
// operator's dashboard would.
func scrape(regs ...*obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	for _, r := range regs {
		if err := r.WritePrometheus(&buf); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out
}

// histMeanMS is the mean of a histogram series between two scrapes, in
// milliseconds; 0 when it saw no observation in between.
func histMeanMS(before, after map[string]float64, name, labels string) float64 {
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / n * 1000
}

// counters is the exported state read before and after the window.
type counters struct {
	cache qcache.Stats
	exec  exec.PoolStats
	ver   notable.VersionStats
	prom  map[string]float64
}

func (e *env) counters() counters {
	return counters{
		cache: e.eng.CacheStats(),
		exec:  exec.Default().Stats(),
		ver:   e.eng.VersionStats(),
		prom:  scrape(e.front.srv.Metrics(), e.eng.Metrics()),
	}
}

// windowMetrics turns the counter deltas over the window into per-layer
// metrics. Hit ratios are reported as hits and lookups: a layer without a
// lookup then reads 0 of 0, not a made-up ratio.
func windowMetrics(m map[string]float64, before, after counters) {
	layers := []struct {
		name string
		l    qcache.Layer
	}{{"selector", qcache.LayerSelector}, {"test", qcache.LayerTest}, {"seed", qcache.LayerSeed}, {"null", qcache.LayerNull}}
	for _, ly := range layers {
		b, a := before.cache.Layers[ly.l], after.cache.Layers[ly.l]
		hits := a.Hits - b.Hits
		m["qcache."+ly.name+"_hits"] = float64(hits)
		m["qcache."+ly.name+"_lookups"] = float64(hits + a.Misses - b.Misses)
	}
	m["qcache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	m["qcache.bytes"] = float64(after.cache.Bytes)
	m["exec.inline_runs"] = float64(after.exec.InlineRuns - before.exec.InlineRuns)
	m["kg.compactions"] = float64(after.ver.Rebuilds - before.ver.Rebuilds)
	m["wal.fsync_ms"] = histMeanMS(before.prom, after.prom, "nc_wal_fsync_seconds", "")
}

// replayed is one cold request's by-hand result, kept for the label probes.
type replayed struct {
	nodes []kg.NodeID
	cset  []kg.NodeID
}

// replay is the traced pass: with no load running it replays a fixed
// sample cold three ways on a private cache-disabled engine — over HTTP,
// by direct Engine.Do, and by hand through each layer's exported stage
// functions — then warm two ways on the workload's own engine, then times
// the kernels below the stages. Every call is one span. It returns how
// many hand replays differed from the engine's answer.
func (e *env) replay(tr *tracer, m map[string]float64) (mismatches int, err error) {
	ctx := context.Background()
	g := e.graph
	private := notable.NewEngine(g, uncachedOptions(e.w, e.seed))
	front, err := serve(private)
	if err != nil {
		return 0, err
	}
	cl := newClient(front.base)
	defer func() {
		cl.close()
		front.stop()
	}()

	// The cold sample: the first search-type requests of the replay stream.
	var cold []request
	for i := 0; len(cold) < replayCold; i++ {
		if req := e.gen.request(replayClient, i); req.Kind == opSearch {
			cold = append(cold, req)
		}
	}
	var direct, stages []float64
	engineAnswers := make([]answer, len(cold))
	nodesOf := make([][]kg.NodeID, len(cold))
	for i, req := range cold {
		id := fmt.Sprintf("cold-%d", i)
		start := time.Now()
		rep := cl.do(req)
		tr.add(id, 0, "replay.http", start, time.Now())
		if !rep.OK {
			return 0, fmt.Errorf("cold replay over HTTP failed: %s", rep.Body)
		}
	}
	before := scrape(private.Metrics())
	for i, req := range cold {
		id := fmt.Sprintf("cold-%d", i)
		nodes, err := private.Resolve(req.Queries[0]...)
		if err != nil {
			return 0, err
		}
		nodesOf[i] = nodes
		var res notable.Result
		d := tr.timed(id, 0, "notable.do", func() { res, err = private.Do(ctx, notable.Query{Nodes: nodes}) })
		if err != nil {
			return 0, err
		}
		direct = append(direct, ms(d))
		engineAnswers[i] = answerOf(res)
	}
	after := scrape(private.Metrics())
	m["obs.stage_ctx_select_ms"] = histMeanMS(before, after, "nc_stage_seconds", `{stage="ctx_select"}`)
	m["obs.stage_compare_ms"] = histMeanMS(before, after, "nc_stage_seconds", `{stage="compare"}`)

	hand := newHandReplay(e.w, e.seed, tr)
	var kept []replayed
	for i := range cold {
		id := fmt.Sprintf("cold-%d", i)
		start := time.Now()
		root := tr.reserve(id, 0, "replay.hand", start)
		res, sum, err := hand.run(ctx, g, id, root, nodesOf[i])
		tr.finish(root, time.Now())
		if err != nil {
			return 0, err
		}
		stages = append(stages, ms(sum))
		if !answerOf(res).equal(engineAnswers[i]) {
			mismatches++
		}
		kept = append(kept, replayed{nodesOf[i], res.ContextIDs()})
	}
	m["notable.do_cold_ms"] = mean(direct)
	m["notable.facade_residual_ms"] = mean(direct) - mean(stages)
	hand.report(m)

	// Warm: the workload's own engine and server, each query answered once
	// and then repeated over HTTP and by direct Do.
	var warmRTT, warmDo, resolve []float64
	for i := 0; i < replayWarm; i++ {
		req := cold[i]
		if rep := e.clients[0].do(req); !rep.OK {
			return 0, fmt.Errorf("warm replay failed: %s", rep.Body)
		}
		id := fmt.Sprintf("warm-%d", i)
		for r := 0; r < warmRepeats; r++ {
			start := time.Now()
			rep := e.clients[0].do(req)
			tr.add(id, 0, "replay.http_warm", start, time.Now())
			if !rep.OK {
				return 0, fmt.Errorf("warm replay failed: %s", rep.Body)
			}
			warmRTT = append(warmRTT, ms(rep.Latency))
			var nodes []kg.NodeID
			resolve = append(resolve, ms(tr.timed(id, 0, "search.resolve", func() { nodes, err = e.eng.Resolve(req.Queries[0]...) })))
			if err != nil {
				return 0, err
			}
			warmDo = append(warmDo, ms(tr.timed(id, 0, "notable.do_warm", func() { _, err = e.eng.Do(ctx, notable.Query{Nodes: nodes}) })))
			if err != nil {
				return 0, err
			}
		}
	}
	m["notable.do_warm_us"] = mean(warmDo) * 1000
	m["search.resolve_us"] = mean(resolve) * 1000
	m["server.http_overhead_ms"] = mean(warmRTT) - mean(warmDo)

	probeLabels(g, kept[:labelQueries], hand.copt, m)
	if e.w.Selector == selRandomWalk {
		if err := e.probeSweeps(ctx, g, tr, m); err != nil {
			return 0, err
		}
	}
	if err := e.probeGraph(g, m); err != nil {
		return 0, err
	}
	if e.w.Durable {
		if err := e.probeWAL(g, m); err != nil {
			return 0, err
		}
	}
	return mismatches, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// handReplay runs one query through the exported stage functions exactly
// as the engine's pipeline chains them, timing each call.
type handReplay struct {
	w      *workloadSpec
	seed   int64
	tr     *tracer
	copt   core.Options
	n      int
	totals map[string]time.Duration
	paths  int
	labels int
}

func newHandReplay(w *workloadSpec, seed int64, tr *tracer) *handReplay {
	return &handReplay{
		w: w, seed: seed, tr: tr, totals: make(map[string]time.Duration),
		// What Engine.coreOptionsFor derives from ncserved's defaults, minus
		// the cache layers.
		copt: core.Options{
			ContextSize: contextK,
			Test:        stats.Multinomial{Alpha: 0.05, Seed: seed},
			SkipInverse: true,
			Policy:      dist.UnseenStrict,
			Seed:        seed,
		},
	}
}

func (h *handReplay) stage(id string, root int, name string, fn func()) time.Duration {
	d := h.tr.timed(id, root, name, fn)
	h.totals[name] += d
	return d
}

func (h *handReplay) run(ctx context.Context, g *kg.Graph, id string, root int, nodes []kg.NodeID) (notable.Result, time.Duration, error) {
	var sum time.Duration
	var scores []float64
	if h.w.Selector == selContextRW {
		sel := ctxsel.ContextRW{Walks: walks, Seed: h.seed}
		var mined []metapath.Mined
		sum += h.stage(id, root, "metapath.mine", func() {
			mined = metapath.MineCtx(ctx, g, nodes, metapath.MineOptions{Walks: walks, MaxLength: 5, Seed: h.seed})
		})
		h.paths += len(mined)
		sum += h.stage(id, root, "ctxsel.score", func() { scores = sel.ScoresWithPaths(g, nodes, mined) })
	} else {
		sum += h.stage(id, root, "ppr.solve", func() { scores = ppr.PersonalizedSumCtx(ctx, g, nodes, ppr.Options{}) })
	}
	var items []topk.Item
	sum += h.stage(id, root, "ctxsel.topk", func() { items = ctxsel.TopKFromScores(scores, nodes, contextK) })
	res := notable.Result{Query: nodes, Context: items}
	var err error
	sum += h.stage(id, root, "core.compare", func() {
		res.Characteristics, err = core.CompareSets(ctx, g, nodes, res.ContextIDs(), h.copt)
	})
	h.n++
	h.labels += len(res.Characteristics)
	return res, sum, err
}

func (h *handReplay) report(m map[string]float64) {
	per := func(name string) float64 { return ms(h.totals[name]) / float64(h.n) }
	m["ctxsel.topk_us"] = per("ctxsel.topk") * 1000
	m["core.compare_ms"] = per("core.compare")
	m["core.labels_tested"] = float64(h.labels) / float64(h.n)
	if h.w.Selector == selContextRW {
		m["metapath.mine_ms"] = per("metapath.mine")
		m["metapath.paths_mined"] = float64(h.paths) / float64(h.n)
		m["metapath.walks_per_s"] = walks / (per("metapath.mine") / 1000)
		m["ctxsel.score_ms"] = per("ctxsel.score")
	} else {
		m["ppr.solve_ms"] = per("ppr.solve")
	}
}

// probeLabels times, label by label, the two kernels inside core.compare:
// building the instance and cardinality distributions, and the multinomial
// tests on them.
func probeLabels(g *kg.Graph, sample []replayed, copt core.Options, m map[string]float64) {
	var ds dist.Scratch
	var ts stats.Scratch
	var build, test time.Duration
	var labels, tests, sampled int
	for _, q := range sample {
		both := append(append([]kg.NodeID(nil), q.nodes...), q.cset...)
		for _, l := range g.LabelsOf(both) {
			if g.IsInverse(l) {
				continue
			}
			t0 := time.Now()
			inst := dist.InstancesScratch(g, l, q.nodes, q.cset, &ds)
			card := dist.Cardinalities(g, l, q.nodes, q.cset)
			t1 := time.Now()
			pi, x := inst.TestVectorsScratch(copt.Policy, &ds)
			r1 := copt.Test.TestScratch(pi, x, &ts)
			r2 := copt.Test.TestScratch(dist.ContextFloats(card.Context), card.Query, &ts)
			test += time.Since(t1)
			build += t1.Sub(t0)
			labels++
			tests += 2
			for _, r := range []stats.Result{r1, r2} {
				if !r.Exact {
					sampled++
				}
			}
		}
	}
	if labels == 0 {
		return
	}
	m["dist.build_us_per_label"] = ms(build) * 1000 / float64(labels)
	m["stats.test_us_per_label"] = ms(test) * 1000 / float64(labels)
	m["stats.mc_share"] = float64(sampled) / float64(tests)
}

// probeSweeps times the two multi-query PageRank schedules on generated
// 8-sweeps: the barriered blocked solve behind /v1/batch and the per-seed
// streaming solve behind /v1/stream, the latter to its first release.
func (e *env) probeSweeps(ctx context.Context, g *kg.Graph, tr *tracer, m map[string]float64) error {
	var multi, first []float64
	for s := 0; s < kernelReps; s++ {
		req := e.gen.sessionStep(replayClient, s, 3)
		queries := make([][]kg.NodeID, len(req.Queries))
		for i, names := range req.Queries {
			nodes, err := e.eng.Resolve(names...)
			if err != nil {
				return err
			}
			queries[i] = nodes
		}
		id := fmt.Sprintf("sweep-%d", s)
		multi = append(multi, ms(tr.timed(id, 0, "ppr.multi_solve", func() {
			ppr.PersonalizedSumMultiCtx(ctx, g, queries, ppr.Options{})
		})))
		start := time.Now()
		var firstAt time.Time
		err := ppr.PersonalizedSumMultiStream(ctx, g, queries, ppr.Options{}, func(int, []float64) {
			if firstAt.IsZero() {
				firstAt = time.Now()
			}
		})
		if err != nil {
			return err
		}
		tr.add(id, 0, "ppr.stream_first", start, firstAt)
		first = append(first, ms(firstAt.Sub(start)))
	}
	m["ppr.multi_solve_ms"] = mean(multi)
	m["ppr.stream_first_ms"] = mean(first)
	return nil
}

// probeGraph times the kg kernels on the workload's graph: the gather
// steps under every PageRank sweep, the transition build every fresh view
// pays, snapshot write and read, overlay Apply and compaction.
func (e *env) probeGraph(g *kg.Graph, m map[string]float64) error {
	n, edges := g.NumNodes(), g.NumEdges()
	trn := g.Transitions()
	reps := max(kernelReps, 20_000_000/max(edges, 1))
	p, next := make([]float64, n*kg.MaxGatherBlock), make([]float64, n*kg.MaxGatherBlock)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		trn.GatherStep(next[:n], p[:n], 0.8)
	}
	m["kg.gather_ns_per_edge"] = float64(time.Since(start)) / float64(reps) / float64(edges)
	dangling := make([]float64, kg.MaxGatherBlock)
	reps = max(kernelReps, reps/kg.MaxGatherBlock)
	start = time.Now()
	for r := 0; r < reps; r++ {
		trn.GatherStepMulti(next, p, 0.8, kg.MaxGatherBlock, dangling)
	}
	m["kg.gather_multi_ns_per_edge_col"] = float64(time.Since(start)) / float64(reps) / float64(edges) / kg.MaxGatherBlock

	// A graph read back from its snapshot has no transition matrix yet, so
	// one round trip yields all three timings.
	var write, read, build []float64
	for r := 0; r < kernelReps; r++ {
		var buf bytes.Buffer
		start = time.Now()
		if err := g.WriteSnapshot(&buf); err != nil {
			return err
		}
		write = append(write, ms(time.Since(start)))
		start = time.Now()
		fresh, err := kg.ReadSnapshot(&buf)
		if err != nil {
			return err
		}
		read = append(read, ms(time.Since(start)))
		start = time.Now()
		fresh.Transitions()
		build = append(build, ms(time.Since(start)))
	}
	m["kg.snapshot_write_ms"] = mean(write)
	m["kg.snapshot_read_ms"] = mean(read)
	m["kg.transitions_build_ms"] = mean(build)

	store := kg.NewVersioned(g, kg.VersionedOptions{TypePredicate: "type", CompactThreshold: -1})
	var apply []float64
	for b := 0; b < probeBatches; b++ {
		req := e.gen.ingestBatch(replayClient, b)
		start = time.Now()
		if _, err := store.Apply(kgTriples(req.Adds), kgTriples(req.Dels)); err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(start)))
	}
	m["kg.apply_us"] = mean(apply) * 1000
	start = time.Now()
	store.Compact()
	m["kg.compact_ms"] = ms(time.Since(start))
	return nil
}

// probeWAL times the log on its own: append + commit of bench batches
// under SyncEveryBatch, the bytes they take, and a checkpoint of the
// workload's graph.
func (e *env) probeWAL(g *kg.Graph, m map[string]float64) error {
	dir, err := os.MkdirTemp(e.tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch, Logf: discardf}, nil)
	if err != nil {
		return err
	}
	defer l.Close()
	empty := l.Stats().Bytes
	var appends []float64
	triples := 0
	for b := 0; b < probeBatches; b++ {
		req := e.gen.ingestBatch(replayClient, b)
		rec := wal.Record{Epoch: uint64(b + 1), Adds: kgTriples(req.Adds), Dels: kgTriples(req.Dels)}
		start := time.Now()
		commit, err := l.Append(rec)
		if err == nil {
			err = commit()
		}
		if err != nil {
			return err
		}
		appends = append(appends, ms(time.Since(start)))
		triples += len(rec.Adds) + len(rec.Dels)
	}
	m["wal.append_commit_ms"] = mean(appends)
	m["wal.bytes_per_triple"] = float64(l.Stats().Bytes-empty) / float64(triples)
	start := time.Now()
	if err := l.Checkpoint(probeBatches, g.WriteSnapshot); err != nil {
		return err
	}
	m["wal.checkpoint_ms"] = ms(time.Since(start))
	return nil
}

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	notable "repro"
	"repro/internal/eval"
	pool "repro/internal/exec"
	"repro/internal/gen"
)

// runConfig is one invocation on one workload.
type runConfig struct {
	w       *workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	smoke   bool
	outDir  string // span files
	tmpBase string // WAL dirs
}

// warmup is discarded load before the window: a sixth of it, so caches
// fill and lazy set-up finishes in proportion when the window is shrunk.
func (c runConfig) warmup() time.Duration { return c.window / 6 }

// setupRepeats is how often set-up runs in one end-to-end invocation;
// setup_s is the median, the last environment is the one measured.
func (c runConfig) setupRepeats() int {
	if c.smoke || c.trace {
		return 1
	}
	return 3
}

// outcome is one invocation's result: the contract's four keys plus the
// report that explains them.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Report    map[string]any
}

func runWorkload(cfg runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.tmpBase, 0o755); err != nil {
		return nil, err
	}
	var e *env
	var setups []float64
	for r := 0; r < cfg.setupRepeats(); r++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(cfg.w, cfg.seed, cfg.tmpBase); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { e.close() }()

	out := &outcome{Metrics: make(map[string]float64)}
	out.Report = map[string]any{"header": header(cfg, e)}
	e.drive(cfg.warmup())
	if cfg.trace {
		return out, e.traced(cfg, out)
	}

	t := e.drive(cfg.window)
	rss := vmHWM()
	mismatches, notes := e.verify()
	if cfg.w.Durable {
		_, err := e.reopen()
		if err != nil {
			mismatches++
			notes = append(notes, err.Error())
		}
	}

	search, answers := t.Lat[opSearch].sorted(), t.Answers.sorted()
	m := out.Metrics
	m["setup_s"] = median(setups)
	m["throughput_qps"] = float64(t.Queries) / t.Elapsed.Seconds()
	m["search_p50_ms"] = percentile(search, 0.50)
	m["search_p75_ms"] = percentile(search, 0.75)
	m["answer_p50_ms"] = percentile(answers, 0.50)
	m["answer_p75_ms"] = percentile(answers, 0.75)
	m["rss_peak_mb"] = rss
	m["context_f1"] = contextF1(cfg.w, e.data)

	out.Attempted, out.Failed = t.attempted(), t.failed()
	out.Correct = mismatches == 0
	out.Report["ops"] = t.opCounts()
	out.Report["latency_ms"] = t.latencyTable()
	out.Report["mismatch_count"] = mismatches
	out.Report["failed_share"] = float64(out.Failed) / float64(max(out.Attempted, 1))
	out.Report["samples"] = map[string]int{
		"setup_s": len(setups), "search": len(search), "answer": len(answers),
		"gate_requests": len(e.samples[0]) + len(e.samples[1]),
	}
	out.Report["supported_percentile"] = map[string]float64{
		"search": supportedPercentile(len(search)), "answer": supportedPercentile(len(answers)),
	}
	if len(notes) > 0 {
		out.Report["mismatches"] = notes
	}
	return out, nil
}

// traced is the --trace 1 run: the window is measured in two halves, spans
// off then on, the exported counters are read around it, and the replay
// pass follows with no load running.
func (e *env) traced(cfg runConfig, out *outcome) error {
	m := out.Metrics
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	tr := newTracer()
	stopPeak := sampleBusyPeak()
	before := e.counters()
	off := e.drive(cfg.window / 2)
	e.tracer = tr
	on := e.drive(cfg.window / 2)
	e.tracer = nil
	after := e.counters()
	m["exec.busy_peak"] = stopPeak()
	windowMetrics(m, before, after)

	qps := func(t *tally) float64 { return float64(t.Queries) / t.Elapsed.Seconds() }
	m["trace.overhead_pct"] = (qps(off) - qps(on)) / qps(off) * 100
	t := off
	t.merge(on)
	sweeps, ingests := t.sweeps().sorted(), t.Lat[opIngest].sorted()
	m["client.search_p99_ms"] = percentile(t.Lat[opSearch].sorted(), 0.99)
	m["client.sweep_p50_ms"] = percentile(sweeps, 0.50)
	m["client.sweep_p90_ms"] = percentile(sweeps, 0.90)
	m["client.ttfr_p50_ms"] = percentile(t.TTFR.sorted(), 0.50)
	m["client.ingest_p50_ms"] = percentile(ingests, 0.50)
	m["client.ingest_p90_ms"] = percentile(ingests, 0.90)
	m["server.resp_bytes_per_req"] = float64(t.RespBytes) / float64(max(t.attempted(), 1))
	m["server.shed_count"] = after.prom["nc_http_shed_total"] - before.prom["nc_http_shed_total"]

	mismatches, err := e.replay(tr, m)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if cfg.w.Durable {
		d, err := e.reopen()
		if err != nil {
			return err
		}
		m["wal.recover_ms"] = ms(d)
	}
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.Name, cfg.seed))
	if err != nil {
		return err
	}

	out.Attempted, out.Failed = t.attempted(), t.failed()
	out.Correct = mismatches == 0
	out.Report["ops"] = t.opCounts()
	out.Report["latency_ms"] = t.latencyTable()
	out.Report["mismatch_count"] = mismatches
	out.Report["span_file"] = path
	out.Report["layer_checks"] = layerChecks(m)
	out.Report["spans"] = len(tr.spans)
	out.Report["self_ms_by_span"] = selfByName(tr.spans)
	out.Report["samples"] = map[string]int{
		"search": len(t.Lat[opSearch]), "sweep": len(sweeps), "ttfr": len(t.TTFR),
		"ingest": len(ingests), "replay_cold": replayCold, "replay_warm": replayWarm * warmRepeats,
	}
	return nil
}

// layerChecks states, for the reader of a traced run, how well the layers
// add up: the share of a cold Do that no replayed stage accounts for, and
// how far the engine's own stage timers are from the hand-replayed stages.
// Both should stay under 0.10; neither decides "correct".
func layerChecks(m map[string]float64) map[string]float64 {
	rel := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (a - b) / b
	}
	selectMS := m["metapath.mine_ms"] + m["ctxsel.score_ms"] + m["ppr.solve_ms"] + m["ctxsel.topk_us"]/1000
	return map[string]float64{
		"residual_share_of_do_cold":     rel(m["notable.do_cold_ms"], m["notable.do_cold_ms"]-m["notable.facade_residual_ms"]),
		"obs_vs_replay_ctx_select":      rel(m["obs.stage_ctx_select_ms"], selectMS),
		"obs_vs_replay_compare":         rel(m["obs.stage_compare_ms"], m["core.compare_ms"]),
		"mine_plus_compare_share_of_do": (m["metapath.mine_ms"] + m["core.compare_ms"]) / m["notable.do_cold_ms"],
	}
}

// sampleBusyPeak polls the shared executor's busy gauge, which has no
// high-water mark of its own, until stop is called; stop returns the peak.
func sampleBusyPeak() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan int64, 1)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var seen int64
		for {
			select {
			case <-done:
				peak <- seen
				return
			case <-tick.C:
				seen = max(seen, pool.Default().Stats().Busy)
			}
		}
	}()
	return func() float64 { close(done); return float64(<-peak) }
}

// reopen closes the durable engine and opens a new one over the same WAL
// dir: recovery must restore exactly the acknowledged epoch. It returns
// how long the reopen took.
func (e *env) reopen() (time.Duration, error) {
	acked := uint64(e.acks)
	e.front.stop()
	e.front = nil
	if err := e.eng.Close(); err != nil {
		return 0, err
	}
	start := time.Now()
	eng, info, err := notable.NewDurableEngine(e.graph, engineOptions(e.w, e.seed), e.durability())
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reopen over the WAL dir: %w", err)
	}
	e.eng = eng
	if info.Epoch != acked {
		return d, fmt.Errorf("recovery restored epoch %d, %d batches were acknowledged", info.Epoch, acked)
	}
	return d, nil
}

// contextF1 is the mean F1@100 of the workload's engine configuration,
// seeded with qualitySeed, on the Table 1 actor queries (sizes 2–6) against
// gen's planted ground truth.
func contextF1(w *workloadSpec, ds *gen.Dataset) float64 {
	eng := notable.NewEngine(ds.Graph, engineOptions(w, qualitySeed))
	sc := ds.Scenario("actors")
	sum, n := 0.0, 0
	for size := 2; size <= len(sc.Query); size++ {
		q, err := sc.QueryIDs(ds.Graph, size)
		if err != nil {
			panic(err) // generators always plant their Table 1 names
		}
		sum += eval.F1Curve(eng.Context(q, contextK), sc.GroundTruthIDs(ds.Graph, size), []int{contextK})[0]
		n++
	}
	return sum / float64(n)
}

// vmHWM is the process's peak resident set in MB, from /proc/self/status.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// header records what the numbers depend on.
func header(cfg runConfig, e *env) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	abs, _ := filepath.Abs(cfg.tmpBase)
	var fs syscall.Statfs_t
	fsType := "unknown"
	if syscall.Statfs(abs, &fs) == nil {
		fsType = fmt.Sprintf("0x%x", fs.Type)
	}
	return map[string]any{
		"workload": cfg.w.Name, "seed": cfg.seed, "trace": cfg.trace,
		"clients": numClients, "warmup_s": cfg.warmup().Seconds(), "window_s": cfg.window.Seconds(),
		"setup_repeats": cfg.setupRepeats(),
		"nproc":         runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit":      commit,
		"graph_nodes": e.graph.NumNodes(), "graph_edges": e.graph.NumEdges(), "entity_pool": len(e.gen.pool),
		"tmp_dir": abs, "tmp_fs_type": fsType,
	}
}

// Command ncbench regenerates every table and figure of the paper's
// evaluation section against the synthetic datasets and prints the series
// as text tables. Run with -exp all (default) or a comma-separated subset:
//
//	ncbench -exp fig2,fig3,table2
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig6, table2, table3,
// fig7, fig8, fig9, metrics, authors, batch, refine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/qcache"
)

func main() {
	var (
		exps  = flag.String("exp", "all", "comma-separated experiments or 'all'")
		seed  = flag.Int64("seed", 42, "master seed")
		scale = flag.Float64("scale", 1, "dataset scale factor")
		walks = flag.Int("walks", 200000, "PathMining walk budget")
	)
	flag.Parse()

	cfg := eval.Config{Seed: *seed, Scale: *scale, Walks: *walks}.WithDefaults()
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	// Ctrl-C aborts the in-flight search experiments cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, cfg, need); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ncbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ncbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg eval.Config, need func(string) bool) error {
	var yago, lmdb *gen.Dataset
	getYago := func() *gen.Dataset {
		if yago == nil {
			fmt.Println("generating yago-like dataset ...")
			yago = gen.YAGOLike(gen.YAGOConfig{Seed: cfg.Seed, Scale: cfg.Scale})
			fmt.Println("  " + yago.Graph.Stats())
		}
		return yago
	}
	getLmdb := func() *gen.Dataset {
		if lmdb == nil {
			fmt.Println("generating linkedmdb-like dataset ...")
			lmdb = gen.LinkedMDBLike(gen.LMDBConfig{Seed: cfg.Seed, Scale: cfg.Scale})
			fmt.Println("  " + lmdb.Graph.Stats())
		}
		return lmdb
	}

	var yagoQuality, lmdbQuality *eval.QualityData
	getYagoQuality := func() (*eval.QualityData, error) {
		if yagoQuality == nil {
			fmt.Println("running context-quality sweep (yago-like/actors) ...")
			var err error
			yagoQuality, err = eval.ComputeQuality(getYago(), "actors", cfg)
			if err != nil {
				return nil, err
			}
		}
		return yagoQuality, nil
	}
	getLmdbQuality := func() (*eval.QualityData, error) {
		if lmdbQuality == nil {
			fmt.Println("running context-quality sweep (linkedmdb-like/actors) ...")
			var err error
			lmdbQuality, err = eval.ComputeQuality(getLmdb(), "actors", cfg)
			if err != nil {
				return nil, err
			}
		}
		return lmdbQuality, nil
	}

	var actors *eval.ActorsCase
	getActors := func() (*eval.ActorsCase, error) {
		if actors == nil {
			fmt.Println("running actors test case (FindNC + RWMult) ...")
			var err error
			actors, err = eval.RunActorsCase(getYago(), cfg, dist.UnseenStrict)
			if err != nil {
				return nil, err
			}
		}
		return actors, nil
	}

	if need("table1") {
		fmt.Println(eval.Table1Render())
	}
	if need("fig2") {
		qd, err := getYagoQuality()
		if err != nil {
			return err
		}
		fmt.Println(eval.Fig2(qd, eval.AlgContextRW).Render())
		fmt.Println(eval.Fig2(qd, eval.AlgRandomWalk).Render())
	}
	if need("fig3") {
		qd, err := getYagoQuality()
		if err != nil {
			return err
		}
		f3 := eval.Fig3(qd)
		fmt.Println(f3.Render())
		fmt.Printf("mean ContextRW advantage over RandomWalk: %.2fx (paper: ~2x, up to 4x)\n\n", f3.Advantage())
	}
	if need("fig4") {
		qd, err := getYagoQuality()
		if err != nil {
			return err
		}
		fmt.Println(eval.Fig4(qd).Render())
	}
	if need("fig5") {
		// The Figure 5 contrast (PageRank sweeps the whole graph per
		// query node; mining walks stay local) only shows on a graph that
		// dwarfs both the communities and the walk budget, as YAGO (27M
		// edges vs 1M walks) does in the paper. Grow only the ambient
		// population for the timing run; communities stay paper-tuned.
		fmt.Println("generating timing dataset (ambient x150) ...")
		timing := gen.YAGOLike(gen.YAGOConfig{
			Seed:         cfg.Seed,
			Scale:        cfg.Scale,
			AmbientScale: 150 * cfg.Scale,
		})
		fmt.Println("  " + timing.Graph.Stats())
		fmt.Println("running timing experiment (fig5) ...")
		f5, err := eval.Fig5(timing, "actors", cfg)
		if err != nil {
			return err
		}
		fmt.Println(f5.Render())
	}
	if need("fig6") {
		fmt.Println("running metapath-length timing experiment (fig6) ...")
		f6, err := eval.Fig6(getYago(), "actors", cfg)
		if err != nil {
			return err
		}
		fmt.Println(f6.Render())
	}
	if need("table2") {
		yq, err := getYagoQuality()
		if err != nil {
			return err
		}
		lq, err := getLmdbQuality()
		if err != nil {
			return err
		}
		fmt.Println(eval.Table2(yq, lq).Render())
	}
	if need("table3") {
		fmt.Println("running |M| sweep (table3) ...")
		t3, err := eval.Table3(getYago(), "actors", cfg)
		if err != nil {
			return err
		}
		fmt.Println(t3.Render())
	}
	if need("fig7") {
		a, err := getActors()
		if err != nil {
			return err
		}
		fmt.Println(a.Fig7Render())
	}
	if need("fig8") {
		a, err := getActors()
		if err != nil {
			return err
		}
		fmt.Println(a.Fig8Render())
	}
	if need("fig9") {
		a, err := getActors()
		if err != nil {
			return err
		}
		fmt.Println(a.Fig9Render())
	}
	if need("metrics") {
		a, err := getActors()
		if err != nil {
			return err
		}
		fmt.Println(eval.RunMetricsComparison(a).Render())
	}
	if need("authors") {
		fmt.Println("running authors test case ...")
		ac, err := eval.RunAuthorsCase(cfg.Seed, cfg.Walks)
		if err != nil {
			return err
		}
		fmt.Println(ac.Render())
	}
	if need("batch") {
		if err := printBatch(ctx, getYago(), cfg); err != nil {
			return err
		}
	}
	if need("refine") {
		if err := printRefine(ctx, getYago(), cfg); err != nil {
			return err
		}
	}
	return nil
}

// printBatch times Engine.DoBatch against sequential cold Do calls on
// the actors profile sweep — every size-5 subset of the cohort, the full
// set, and one truncation — prints per-query latencies and the batch
// speedup, then streams the same mix through DoStream and reports
// time-to-first-result against the batch barrier. Caches are disabled so
// each side pays the full cold cost; results are bitwise identical by
// construction.
func printBatch(ctx context.Context, d *gen.Dataset, cfg eval.Config) error {
	fmt.Println("timing batched vs sequential cold search (yago-like/actors sweep) ...")
	g := d.Graph
	g.Transitions()
	cohort, err := d.Scenario("actors").QueryIDs(g, 6)
	if err != nil {
		return err
	}
	var queries []notable.Query
	for drop := 0; drop < len(cohort); drop++ {
		q := make([]notable.NodeID, 0, len(cohort)-1)
		for i, id := range cohort {
			if i != drop {
				q = append(q, id)
			}
		}
		queries = append(queries, notable.Query{Nodes: q})
	}
	queries = append(queries, notable.Query{Nodes: cohort}, notable.Query{Nodes: cohort[:4]})

	e := notable.NewEngine(g, notable.Options{
		ContextSize: 30,
		Selector:    notable.SelectorRandomWalk,
		Seed:        cfg.Seed,
		CacheSize:   -1,
	})
	start := time.Now()
	for _, q := range queries {
		if _, err := e.Do(ctx, q); err != nil {
			return err
		}
	}
	seq := time.Since(start)
	start = time.Now()
	if _, err := e.DoBatch(ctx, queries); err != nil {
		return err
	}
	batch := time.Since(start)
	nq := len(queries)
	fmt.Printf("  sequential: %v total, %v/query\n", seq, seq/time.Duration(nq))
	fmt.Printf("  batched:    %v total, %v/query\n", batch, batch/time.Duration(nq))
	fmt.Printf("  speedup:    %.2fx over %d queries\n", float64(seq)/float64(batch), nq)

	// The same mix as a stream: first result vs the batch barrier.
	start = time.Now()
	var first time.Duration
	received := 0
	for out := range e.DoStream(ctx, queries) {
		if out.Err != nil {
			return out.Err
		}
		if received == 0 {
			first = time.Since(start)
		}
		received++
	}
	streamTotal := time.Since(start)
	fmt.Printf("  streamed:   first result %v (%.2fx of the %v batch barrier), all %d in %v\n",
		first, float64(first)/float64(batch), batch, received, streamTotal)

	// The same batch through a caching engine, twice: the first pass fills
	// every layer (the overlap already hits the seed store), the second is
	// pure hits — the per-layer accounting the sharded cache exposes.
	cached := notable.NewEngine(g, notable.Options{
		ContextSize: 30,
		Selector:    notable.SelectorRandomWalk,
		Seed:        cfg.Seed,
		CacheShards: 4,
	})
	for pass := 1; pass <= 2; pass++ {
		start = time.Now()
		if _, err := cached.DoBatch(ctx, queries); err != nil {
			return err
		}
		fmt.Printf("  cached engine pass %d: %v total\n", pass, time.Since(start))
	}
	printCacheStats(cached.CacheStats())
	return nil
}

// printCacheStats renders the per-layer cache table.
func printCacheStats(st qcache.Stats) {
	fmt.Printf("  cache: %d entries / %d KiB over %d shards, %d evictions\n",
		st.Size, st.Bytes/1024, st.Shards, st.Evictions)
	fmt.Printf("  %-10s %8s %8s %10s\n", "layer", "hits", "misses", "KiB")
	for l := 0; l < qcache.NumLayers; l++ {
		ls := st.Layers[l]
		if ls.Hits+ls.Misses == 0 && ls.Bytes == 0 {
			continue
		}
		fmt.Printf("  %-10s %8d %8d %10d\n", qcache.Layer(l), ls.Hits, ls.Misses, ls.Bytes/1024)
	}
}

// printRefine times the interactive-refinement fast path: a warm engine
// walks an exploratory session over the actors cohort — each step adds or
// removes one entity — against a cache-disabled engine paying the full
// cold cost for the same queries. Testing runs in the Monte-Carlo regime
// (every label sampled, each test stopping once its answer is clear); the
// seed-vector layer carries context selection. Results are bitwise
// identical on both sides.
func printRefine(ctx context.Context, d *gen.Dataset, cfg eval.Config) error {
	fmt.Println("timing interactive refinement vs cold search (yago-like/actors ±1 sweep) ...")
	g := d.Graph
	g.Transitions()
	cohort, err := d.Scenario("actors").QueryIDs(g, 6)
	if err != nil {
		return err
	}
	// Two ambient entities (outside the cohort) for candidate-probing
	// steps, picked deterministically across the node space.
	inCohort := map[notable.NodeID]bool{}
	for _, id := range cohort {
		inCohort[id] = true
	}
	var ambient []notable.NodeID
	for i := uint64(1); len(ambient) < 2; i++ {
		id := notable.NodeID((i * 2654435761) % uint64(g.NumNodes()))
		if !inCohort[id] {
			ambient = append(ambient, id)
		}
	}
	base := cohort[:3]
	with := func(extra ...notable.NodeID) []notable.NodeID {
		return append(append([]notable.NodeID(nil), base...), extra...)
	}
	// The session mirrors a real exploration: grow the set, undo, probe
	// outside candidates, revisit. First visits pay the new entity's solve
	// plus whatever the context shift recomputes; undos and revisits are
	// pure cache hits.
	steps := []struct {
		label string
		q     []notable.NodeID
	}{
		{"3 actors (cold fill)", base},
		{"+1 actor", with(cohort[3])},
		{"undo (revisit base)", base},
		{"+1 ambient entity", with(ambient[0])},
		{"swap ambient entity", with(ambient[1])},
		{"revisit 4 actors", with(cohort[3])},
		{"+1 different actor", with(cohort[4])},
	}
	opt := notable.Options{
		ContextSize:    30,
		Selector:       notable.SelectorRandomWalk,
		Seed:           cfg.Seed,
		TestSamples:    20000,
		TestExactLimit: 1,
	}
	warm := notable.NewEngine(g, opt)
	coldOpt := opt
	coldOpt.CacheSize = -1
	cold := notable.NewEngine(g, coldOpt)

	fmt.Printf("  %-28s %12s %12s %8s\n", "step", "warm", "cold", "speedup")
	var warmTotal, coldTotal time.Duration
	prev := warm.CacheStats()
	for _, step := range steps {
		start := time.Now()
		if _, err := warm.Do(ctx, notable.Query{Nodes: step.q}); err != nil {
			return err
		}
		wt := time.Since(start)
		start = time.Now()
		if _, err := cold.Do(ctx, notable.Query{Nodes: step.q}); err != nil {
			return err
		}
		ct := time.Since(start)
		warmTotal += wt
		coldTotal += ct
		st := warm.CacheStats()
		fmt.Printf("  %-28s %12v %12v %7.2fx  (seed +%dh/+%dm)\n",
			step.label, wt, ct, float64(ct)/float64(wt),
			st.Layers[qcache.LayerSeed].Hits-prev.Layers[qcache.LayerSeed].Hits,
			st.Layers[qcache.LayerSeed].Misses-prev.Layers[qcache.LayerSeed].Misses)
		prev = st
	}
	fmt.Printf("  session: warm %v, cold %v — %.2fx over %d refinement steps\n",
		warmTotal, coldTotal, float64(coldTotal)/float64(warmTotal), len(steps))
	printCacheStats(warm.CacheStats())
	return nil
}

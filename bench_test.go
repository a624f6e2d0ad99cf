// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (the experiments of internal/eval, which
// `cmd/ncbench` prints in full). Each benchmark
// runs the corresponding experiment end to end and reports the headline
// quality metric alongside timing; `cmd/ncbench` prints the full tables.
//
// Benchmarks use a half-scale dataset and a reduced walk budget so the
// full suite completes in minutes; cmd/ncbench defaults to full scale.
package notable

import (
	"context"
	"sync"
	"testing"

	"repro/internal/corr"
	"repro/internal/ctxsel"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/stats"
)

const (
	benchSeed  = 42
	benchScale = 0.5
	benchWalks = 60000
)

var (
	benchOnce     sync.Once
	benchYago     *gen.Dataset
	benchLmdb     *gen.Dataset
	benchCfg      eval.Config
	actorsOnce    sync.Once
	actorsCase    *eval.ActorsCase
	actorsCaseErr error
)

func benchSetup(b *testing.B) (*gen.Dataset, *gen.Dataset, eval.Config) {
	b.Helper()
	benchOnce.Do(func() {
		benchYago = gen.YAGOLike(gen.YAGOConfig{Seed: benchSeed, Scale: benchScale})
		benchLmdb = gen.LinkedMDBLike(gen.LMDBConfig{Seed: benchSeed, Scale: benchScale})
		benchCfg = eval.Config{Seed: benchSeed, Scale: benchScale, Walks: benchWalks}.WithDefaults()
	})
	return benchYago, benchLmdb, benchCfg
}

func benchActorsCase(b *testing.B) *eval.ActorsCase {
	b.Helper()
	yago, _, cfg := benchSetup(b)
	actorsOnce.Do(func() {
		actorsCase, actorsCaseErr = eval.RunActorsCase(yago, cfg, dist.UnseenStrict)
	})
	if actorsCaseErr != nil {
		b.Fatal(actorsCaseErr)
	}
	return actorsCase
}

// queryOfSize resolves the first n actor query entities.
func queryOfSize(b *testing.B, d *gen.Dataset, n int) []kg.NodeID {
	b.Helper()
	q, err := d.Scenario("actors").QueryIDs(d.Graph, n)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkFig2aContextRW regenerates Figure 2a: the per-query-size F1
// sweep of ContextRW over context sizes.
func BenchmarkFig2aContextRW(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	sc := yago.Scenario("actors")
	cuts := cfg.Cuts()
	for i := 0; i < b.N; i++ {
		best := 0.0
		for size := 2; size <= 6; size++ {
			q := queryOfSize(b, yago, size)
			ranking := eval.Ranking(yago.Graph, q, eval.AlgContextRW, cfg, cfg.MaxContext)
			curve := eval.F1Curve(ranking, sc.GroundTruthIDs(yago.Graph, size), cuts)
			if m, _ := eval.MaxF1(cuts, curve); m > best {
				best = m
			}
		}
		b.ReportMetric(best, "maxF1")
	}
}

// BenchmarkFig2bRandomWalk regenerates Figure 2b: the same sweep for the
// RandomWalk baseline.
func BenchmarkFig2bRandomWalk(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	sc := yago.Scenario("actors")
	cuts := cfg.Cuts()
	for i := 0; i < b.N; i++ {
		best := 0.0
		for size := 2; size <= 6; size++ {
			q := queryOfSize(b, yago, size)
			ranking := eval.Ranking(yago.Graph, q, eval.AlgRandomWalk, cfg, cfg.MaxContext)
			curve := eval.F1Curve(ranking, sc.GroundTruthIDs(yago.Graph, size), cuts)
			if m, _ := eval.MaxF1(cuts, curve); m > best {
				best = m
			}
		}
		b.ReportMetric(best, "maxF1")
	}
}

// BenchmarkFig3AvgQuality regenerates Figure 3: averaged F1 curves and the
// ContextRW-over-RandomWalk advantage.
func BenchmarkFig3AvgQuality(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	for i := 0; i < b.N; i++ {
		qd, err := eval.ComputeQuality(yago, "actors", cfg)
		if err != nil {
			b.Fatal(err)
		}
		f3 := eval.Fig3(qd)
		b.ReportMetric(f3.Advantage(), "advantage")
	}
}

// BenchmarkFig4QuerySize regenerates Figure 4: F1 vs query size at fixed
// context sizes.
func BenchmarkFig4QuerySize(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	for i := 0; i < b.N; i++ {
		qd, err := eval.ComputeQuality(yago, "actors", cfg)
		if err != nil {
			b.Fatal(err)
		}
		f4 := eval.Fig4(qd)
		b.ReportMetric(f4.F1At[eval.AlgContextRW][100][6], "F1@100_q6")
	}
}

// BenchmarkFig5ContextTimeContextRW regenerates Figure 5's ContextRW
// series: context selection time as the query grows.
func BenchmarkFig5ContextTimeContextRW(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	q := queryOfSize(b, yago, 5)
	sel := ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctxsel.Select(context.Background(), sel, yago.Graph, q, 100)
	}
}

// BenchmarkFig5ContextTimeRandomWalk regenerates Figure 5's RandomWalk
// series (the paper's 1–2 orders-of-magnitude slower baseline).
func BenchmarkFig5ContextTimeRandomWalk(b *testing.B) {
	yago, _, _ := benchSetup(b)
	q := queryOfSize(b, yago, 5)
	sel := ctxsel.RandomWalk{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctxsel.Select(context.Background(), sel, yago.Graph, q, 100)
	}
}

// BenchmarkFig6PathLength regenerates Figure 6: mining+scoring time as the
// maximum metapath length grows (length 20, the most expensive point).
func BenchmarkFig6PathLength(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	q := queryOfSize(b, yago, 3)
	sel := ctxsel.ContextRW{Walks: cfg.Walks / 4, Seed: cfg.Seed, MaxLength: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctxsel.Select(context.Background(), sel, yago.Graph, q, 100)
	}
}

// BenchmarkTable2MaxF1 regenerates Table 2: YAGO-like vs LinkedMDB-like
// maximum F1 (ContextRW, actors).
func BenchmarkTable2MaxF1(b *testing.B) {
	yago, lmdb, cfg := benchSetup(b)
	for i := 0; i < b.N; i++ {
		yq, err := eval.ComputeQuality(yago, "actors", cfg)
		if err != nil {
			b.Fatal(err)
		}
		lq, err := eval.ComputeQuality(lmdb, "actors", cfg)
		if err != nil {
			b.Fatal(err)
		}
		t2 := eval.Table2(yq, lq)
		b.ReportMetric(t2.Rows[2]["yago-like"][0], "yagoMaxF1_q2")
		b.ReportMetric(t2.Rows[2]["linkedmdb-like"][0], "lmdbMaxF1_q2")
	}
}

// BenchmarkTable3PathCount regenerates Table 3: F1 across |M| × |C|.
func BenchmarkTable3PathCount(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	for i := 0; i < b.N; i++ {
		t3, err := eval.Table3(yago, "actors", cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t3.F1[1][0], "F1@100_M5")
	}
}

// BenchmarkFig7CreatedInst regenerates Figure 7: the created instance
// distribution and its notability.
func BenchmarkFig7CreatedInst(b *testing.B) {
	a := benchActorsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := a.FindNC.ByName("created")
		if !ok {
			b.Fatal("created missing")
		}
		if s := a.Fig7Render(); len(s) == 0 {
			b.Fatal("empty render")
		}
		b.ReportMetric(c.Score, "score")
	}
}

// BenchmarkFig8PrizeCard regenerates Figure 8: the hasWonPrize cardinality
// distribution (not notable).
func BenchmarkFig8PrizeCard(b *testing.B) {
	a := benchActorsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := a.FindNC.ByName("hasWonPrize")
		if !ok {
			b.Fatal("hasWonPrize missing")
		}
		if s := a.Fig8Render(); len(s) == 0 {
			b.Fatal("empty render")
		}
		b.ReportMetric(c.CardP, "cardP")
	}
}

// BenchmarkFig9Significance regenerates Figure 9: per-label significance
// probabilities under FindNC vs RWMult.
func BenchmarkFig9Significance(b *testing.B) {
	a := benchActorsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := a.Fig9()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		wrongRW := 0
		for _, r := range rows {
			if r.RWMultNotable && !r.FindNCNotable {
				wrongRW++
			}
		}
		b.ReportMetric(float64(wrongRW), "rwOnlyNotables")
	}
}

// BenchmarkMetricsComparison regenerates the §4.2 rank-switch comparison.
func BenchmarkMetricsComparison(b *testing.B) {
	a := benchActorsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := eval.RunMetricsComparison(a)
		b.ReportMetric(float64(m.Switches["FindNC"]), "findncSwitches")
		b.ReportMetric(float64(m.Switches["KL"]), "klSwitches")
		b.ReportMetric(float64(m.Switches["EMD"]), "emdSwitches")
	}
}

// BenchmarkAuthorsCase regenerates the Adams/Pratchett test case.
func BenchmarkAuthorsCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ac, err := eval.RunAuthorsCase(benchSeed, 50000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ac.Influences.InstP, "influencesP")
		b.ReportMetric(ac.Created.InstP, "createdP")
	}
}

// --- Ablation benches: one design lever switched off at a time ---

// BenchmarkAblationUniformWalk compares informativeness-weighted mining
// (Eq. 1) against uniform edge choice: the reported metric is the F1 each
// achieves on the actors scenario.
func BenchmarkAblationUniformWalk(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	sc := yago.Scenario("actors")
	q := queryOfSize(b, yago, 5)
	gt := sc.GroundTruthIDs(yago.Graph, 5)
	for i := 0; i < b.N; i++ {
		for _, uniform := range []bool{false, true} {
			sel := ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed, Uniform: uniform}
			ranking := ctxsel.Select(context.Background(), sel, yago.Graph, q, 100)
			f1 := eval.F1Curve(ranking, gt, []int{100})[0]
			if uniform {
				b.ReportMetric(f1, "uniformF1")
			} else {
				b.ReportMetric(f1, "weightedF1")
			}
		}
	}
}

// BenchmarkAblationSelectors compares all four context selectors on the
// same query.
func BenchmarkAblationSelectors(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	q := queryOfSize(b, yago, 3)
	selectors := []ctxsel.Selector{
		ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed},
		ctxsel.RandomWalk{},
		ctxsel.SimRank{},
		ctxsel.Jaccard{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := selectors[i%len(selectors)]
		if got := ctxsel.Select(context.Background(), sel, yago.Graph, q, 50); len(got) == 0 {
			b.Fatalf("%s returned nothing", sel.Name())
		}
	}
}

// BenchmarkAblationDistKinds compares notable counts when only the
// instance test, only the cardinality test, or the paper's max rule is
// applied.
func BenchmarkAblationDistKinds(b *testing.B) {
	a := benchActorsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instOnly, cardOnly, maxRule := 0, 0, 0
		for _, c := range a.FindNC.Characteristics {
			if c.InstScore > 0 {
				instOnly++
			}
			if c.CardScore > 0 {
				cardOnly++
			}
			if c.Notable() {
				maxRule++
			}
		}
		b.ReportMetric(float64(instOnly), "instOnly")
		b.ReportMetric(float64(cardOnly), "cardOnly")
		b.ReportMetric(float64(maxRule), "maxRule")
	}
}

// BenchmarkMultinomialExactVsMC measures the exact/Monte-Carlo crossover
// on a mid-sized test.
func BenchmarkMultinomialExactVsMC(b *testing.B) {
	pi := []float64{0.4, 0.3, 0.2, 0.1}
	obs := []int{5, 3, 2, 6}
	exact := stats.Multinomial{ExactLimit: 1 << 20, Seed: 1}
	mc := stats.Multinomial{ExactLimit: 1, Samples: 20000, Seed: 1}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.Test(pi, obs)
		}
	})
	b.Run("montecarlo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc.Test(pi, obs)
		}
	})
}

// BenchmarkCorrelationExtension measures the future-work attribute
// correlation scan on the actors context.
func BenchmarkCorrelationExtension(b *testing.B) {
	a := benchActorsCase(b)
	yago, _, _ := benchSetup(b)
	labels := yago.Graph.LabelsOf(append(a.Query, a.Context...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := corr.Find(yago.Graph, a.Query, a.Context, labels, corr.Options{
			Test: stats.Multinomial{Seed: benchSeed},
		})
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkEndToEndFindNC measures the full pipeline (context selection +
// all label tests) on the five-actor query.
func BenchmarkEndToEndFindNC(b *testing.B) {
	yago, _, cfg := benchSetup(b)
	g := yago.Graph
	engine := NewEngine(g, Options{
		ContextSize: 100,
		Walks:       cfg.Walks,
		Seed:        benchSeed,
	})
	names := gen.Table1["actors"][:5]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query, err := engine.Resolve(names...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := engine.Do(context.Background(), Query{Nodes: query})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Characteristics) == 0 {
			b.Fatal("no characteristics")
		}
	}
}

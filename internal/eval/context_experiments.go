package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ctxsel"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/metapath"
)

// Fig2Result reproduces Figure 2: F1 vs context size for each query-size
// prefix, one sub-result per algorithm.
type Fig2Result struct {
	Quality *QualityData
	Alg     string
}

// Fig2 derives the Figure 2a (ContextRW) or 2b (RandomWalk) series.
func Fig2(qd *QualityData, alg string) Fig2Result {
	return Fig2Result{Quality: qd, Alg: alg}
}

// Render prints one row per cutoff with a column per query prefix.
func (r Fig2Result) Render() string {
	qd := r.Quality
	sizes := sortedKeys(qd.F1[r.Alg])
	header := []string{"|C|"}
	for _, s := range sizes {
		header = append(header, queryLabel(qd.QueryNames, s))
	}
	var rows [][]string
	for ci, cut := range qd.Cuts {
		row := []string{fmt.Sprintf("%d", cut)}
		for _, s := range sizes {
			row = append(row, fmtF(qd.F1[r.Alg][s][ci]))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figure 2 (%s, %s/%s): F1 vs |C| per query\n%s",
		r.Alg, qd.Dataset, qd.Domain, table(header, rows))
}

// Fig3Result reproduces Figure 3: average F1 vs context size for both
// algorithms.
type Fig3Result struct {
	Quality *QualityData
	CRW, RW []float64
}

// Fig3 computes the averaged curves.
func Fig3(qd *QualityData) Fig3Result {
	return Fig3Result{
		Quality: qd,
		CRW:     qd.AverageF1(AlgContextRW),
		RW:      qd.AverageF1(AlgRandomWalk),
	}
}

// Render prints the two averaged series.
func (r Fig3Result) Render() string {
	var rows [][]string
	for ci, cut := range r.Quality.Cuts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", cut), fmtF(r.CRW[ci]), fmtF(r.RW[ci]),
		})
	}
	return fmt.Sprintf("Figure 3 (%s/%s): average F1 vs |C|\n%s",
		r.Quality.Dataset, r.Quality.Domain,
		table([]string{"|C|", "ContextRW", "RandomWalk"}, rows))
}

// Advantage returns the mean ContextRW/RandomWalk F1 ratio over cuts where
// the baseline is non-zero — the paper's "2 times better" claim.
func (r Fig3Result) Advantage() float64 {
	sum, n := 0.0, 0
	for i := range r.CRW {
		if r.RW[i] > 0 {
			sum += r.CRW[i] / r.RW[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig4Result reproduces Figure 4: average F1 vs query size at fixed
// context sizes 50 and 100 for both algorithms.
type Fig4Result struct {
	Quality *QualityData
	// F1At[alg][cut][size] with cut ∈ {50, 100}.
	F1At map[string]map[int]map[int]float64
}

// Fig4 extracts the fixed-cut columns from the quality data.
func Fig4(qd *QualityData) Fig4Result {
	res := Fig4Result{Quality: qd, F1At: map[string]map[int]map[int]float64{}}
	for _, alg := range []string{AlgContextRW, AlgRandomWalk} {
		res.F1At[alg] = map[int]map[int]float64{50: {}, 100: {}}
		for _, cut := range []int{50, 100} {
			ci := indexOfCut(qd.Cuts, cut)
			if ci < 0 {
				continue
			}
			for size, curve := range qd.F1[alg] {
				res.F1At[alg][cut][size] = curve[ci]
			}
		}
	}
	return res
}

func indexOfCut(cuts []int, cut int) int {
	for i, c := range cuts {
		if c == cut {
			return i
		}
	}
	return -1
}

// Render prints F1 per query size for the four algorithm/cut combinations.
func (r Fig4Result) Render() string {
	sizes := sortedKeys(r.Quality.F1[AlgContextRW])
	header := []string{"|Q|", "ContextRW |C|=50", "ContextRW |C|=100",
		"RandomWalk |C|=50", "RandomWalk |C|=100"}
	var rows [][]string
	for _, s := range sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s),
			fmtF(r.F1At[AlgContextRW][50][s]),
			fmtF(r.F1At[AlgContextRW][100][s]),
			fmtF(r.F1At[AlgRandomWalk][50][s]),
			fmtF(r.F1At[AlgRandomWalk][100][s]),
		})
	}
	return fmt.Sprintf("Figure 4 (%s/%s): average F1 vs |Q|\n%s",
		r.Quality.Dataset, r.Quality.Domain, table(header, rows))
}

// Fig5Result reproduces Figure 5: context selection wall-clock time vs
// query size for both algorithms.
type Fig5Result struct {
	Sizes []int
	// Seconds[alg][i] is the measured time for Sizes[i].
	Seconds map[string][]float64
	// BuildSeconds is ContextRW's one-off walk-bank build, paid once per
	// graph before its first selection and timed apart from it.
	BuildSeconds float64
}

// Fig5 measures selection times. Both selectors run on the calling
// goroutine, so the comparison matches the paper's sequential Java
// implementation. ContextRW's walk bank is built first, on its own clock,
// so every size times a query, not a build.
func Fig5(d *gen.Dataset, domain string, cfg Config) (Fig5Result, error) {
	cfg = cfg.WithDefaults()
	sc := d.Scenario(domain)
	res := Fig5Result{Seconds: map[string][]float64{}}
	crw := ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed}
	var err error
	if res.BuildSeconds, err = buildBank(d.Graph, crw); err != nil {
		return res, err
	}
	for size := 1; size <= 5; size++ {
		query, err := sc.QueryIDs(d.Graph, size)
		if err != nil {
			return res, err
		}
		res.Sizes = append(res.Sizes, size)

		start := time.Now()
		ctxsel.Select(context.Background(), crw, d.Graph, query, 100)
		res.Seconds[AlgContextRW] = append(res.Seconds[AlgContextRW], time.Since(start).Seconds())

		start = time.Now()
		rw := ctxsel.RandomWalk{}
		ctxsel.Select(context.Background(), rw, d.Graph, query, 100)
		res.Seconds[AlgRandomWalk] = append(res.Seconds[AlgRandomWalk], time.Since(start).Seconds())
	}
	return res, nil
}

// buildBank builds g's walk bank for sel's mining options and returns the
// build's wall time.
func buildBank(g *kg.Graph, sel ctxsel.ContextRW) (float64, error) {
	maxLen := sel.MaxLength
	if maxLen == 0 {
		maxLen = 5
	}
	start := time.Now()
	err := metapath.Prepare(context.Background(), g, metapath.MineOptions{
		Walks: sel.Walks, MaxLength: maxLen, Uniform: sel.Uniform, Seed: sel.Seed,
	})
	return time.Since(start).Seconds(), err
}

// Render prints seconds per query size, after a row for the one-off
// walk-bank build.
func (r Fig5Result) Render() string {
	rows := [][]string{{"build", fmt.Sprintf("%.4f", r.BuildSeconds), "-", "-"}}
	for i, s := range r.Sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.4f", r.Seconds[AlgContextRW][i]),
			fmt.Sprintf("%.4f", r.Seconds[AlgRandomWalk][i]),
			fmt.Sprintf("%.1fx", safeRatio(r.Seconds[AlgRandomWalk][i], r.Seconds[AlgContextRW][i])),
		})
	}
	return "Figure 5: context selection time (s) vs |Q|\n" +
		table([]string{"|Q|", "ContextRW", "RandomWalk", "RW/CRW"}, rows)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig6Result reproduces Figure 6: ContextRW time vs maximum metapath
// length, one series per query size.
type Fig6Result struct {
	Lengths []int
	Sizes   []int
	// Seconds[sizeIdx][lenIdx].
	Seconds [][]float64
	// BuildSeconds[lenIdx] is the one-off walk-bank build for that length,
	// timed apart from the selections.
	BuildSeconds []float64
}

// Fig6 measures mining+scoring time for metapath length caps 5..20. Each
// length mines its own walk bank: it is built first, on its own clock,
// and then every query size is timed against it.
func Fig6(d *gen.Dataset, domain string, cfg Config) (Fig6Result, error) {
	cfg = cfg.WithDefaults()
	sc := d.Scenario(domain)
	res := Fig6Result{Lengths: []int{5, 10, 15, 20}}
	var queries [][]kg.NodeID
	for size := 2; size <= len(sc.Query); size++ {
		query, err := sc.QueryIDs(d.Graph, size)
		if err != nil {
			return res, err
		}
		res.Sizes = append(res.Sizes, size)
		queries = append(queries, query)
		res.Seconds = append(res.Seconds, make([]float64, len(res.Lengths)))
	}
	for li, maxLen := range res.Lengths {
		sel := ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed, MaxLength: maxLen}
		build, err := buildBank(d.Graph, sel)
		if err != nil {
			return res, err
		}
		res.BuildSeconds = append(res.BuildSeconds, build)
		for si, query := range queries {
			start := time.Now()
			ctxsel.Select(context.Background(), sel, d.Graph, query, 100)
			res.Seconds[si][li] = time.Since(start).Seconds()
		}
	}
	return res, nil
}

// Render prints seconds per (query size, max length), each length's
// one-off walk-bank build in its own column.
func (r Fig6Result) Render() string {
	header := []string{"maxLen", "build"}
	for _, s := range r.Sizes {
		header = append(header, fmt.Sprintf("|Q|=%d", s))
	}
	var rows [][]string
	for li, l := range r.Lengths {
		row := []string{fmt.Sprintf("%d", l), fmt.Sprintf("%.4f", r.BuildSeconds[li])}
		for si := range r.Sizes {
			row = append(row, fmt.Sprintf("%.4f", r.Seconds[si][li]))
		}
		rows = append(rows, row)
	}
	return "Figure 6: ContextRW time (s) vs max metapath length\n" + table(header, rows)
}

// Table2Result reproduces Table 2: maximum F1 and the context size where
// it occurs, per query size, on both datasets (ContextRW, actors domain).
type Table2Result struct {
	// Rows[size][dataset] = (maxF1, argmax|C|).
	Rows map[int]map[string][2]float64
}

// Table2 extracts maxima from two quality sweeps.
func Table2(yago, lmdb *QualityData) Table2Result {
	res := Table2Result{Rows: map[int]map[string][2]float64{}}
	for _, qd := range []*QualityData{yago, lmdb} {
		for size, curve := range qd.F1[AlgContextRW] {
			best, at := MaxF1(qd.Cuts, curve)
			if res.Rows[size] == nil {
				res.Rows[size] = map[string][2]float64{}
			}
			res.Rows[size][qd.Dataset] = [2]float64{best, float64(at)}
		}
	}
	return res
}

// Render prints the paper's Table 2 layout.
func (r Table2Result) Render() string {
	var rows [][]string
	for _, size := range sortedKeys(r.Rows) {
		for _, ds := range []string{"yago-like", "linkedmdb-like"} {
			v, ok := r.Rows[size][ds]
			if !ok {
				continue
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", size), ds, fmtF(v[0]), fmt.Sprintf("%.0f", v[1]),
			})
		}
	}
	return "Table 2: max F1 and argmax |C| (ContextRW, actors)\n" +
		table([]string{"|Q|", "dataset", "maxF1", "|C|"}, rows)
}

// Table3Result reproduces Table 3: F1 as a function of |M| and |C|.
type Table3Result struct {
	NumPaths []int
	Cuts     []int
	// F1[cutIdx][pathIdx].
	F1 [][]float64
}

// Table3 mines once at the configured walk budget and re-scores with
// |M| ∈ {5,10,15,20}, evaluating at |C| ∈ {50,100,150,200}. The paper uses
// the actors domain with the full query.
func Table3(d *gen.Dataset, domain string, cfg Config) (Table3Result, error) {
	cfg = cfg.WithDefaults()
	sc := d.Scenario(domain)
	size := len(sc.Query)
	query, err := sc.QueryIDs(d.Graph, size)
	if err != nil {
		return Table3Result{}, err
	}
	gt := sc.GroundTruthIDs(d.Graph, size)

	mined := metapath.Mine(d.Graph, query, metapath.MineOptions{
		Walks: cfg.Walks, Seed: cfg.Seed,
	})
	res := Table3Result{
		NumPaths: []int{5, 10, 15, 20},
		Cuts:     []int{50, 100, 150, 200},
	}
	res.F1 = make([][]float64, len(res.Cuts))
	for i := range res.F1 {
		res.F1[i] = make([]float64, len(res.NumPaths))
	}
	for pi, m := range res.NumPaths {
		sel := ctxsel.ContextRW{NumPaths: m, Walks: cfg.Walks, Seed: cfg.Seed}
		scores := sel.ScoresWithPaths(d.Graph, query, mined)
		ranking := ctxsel.TopKFromScores(scores, query, 200)
		curve := F1Curve(ranking, gt, res.Cuts)
		for ci := range res.Cuts {
			res.F1[ci][pi] = curve[ci]
		}
	}
	return res, nil
}

// Render prints the |C| × |M| grid.
func (r Table3Result) Render() string {
	header := []string{"|C|"}
	for _, m := range r.NumPaths {
		header = append(header, fmt.Sprintf("|M|=%d", m))
	}
	var rows [][]string
	for ci, cut := range r.Cuts {
		row := []string{fmt.Sprintf("%d", cut)}
		for pi := range r.NumPaths {
			row = append(row, fmtF(r.F1[ci][pi]))
		}
		rows = append(rows, row)
	}
	return "Table 3: F1 vs number of paths |M| and context size |C|\n" + table(header, rows)
}

// Table1Render prints the paper's Table 1 (the query entities).
func Table1Render() string {
	header := []string{"politicians", "actors", "movie contributors"}
	var rows [][]string
	for i := 0; i < 6; i++ {
		rows = append(rows, []string{
			gen.Table1["politicians"][i],
			gen.Table1["actors"][i],
			gen.Table1["contributors"][i],
		})
	}
	return "Table 1: query entities per domain\n" + table(header, rows)
}

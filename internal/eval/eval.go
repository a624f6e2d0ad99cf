// Package eval is the experiment harness: it regenerates every table and
// figure of the paper's Section 4 (PAPER.md has the abstract) against the
// synthetic datasets; `go run ./cmd/ncbench` runs them all and prints the
// results. Each experiment returns a typed result with a Render method
// that prints the same rows/series the paper reports.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ctxsel"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/topk"
)

// Config holds experiment-wide parameters.
type Config struct {
	// Seed drives dataset generation and every randomized component.
	Seed int64
	// Scale multiplies dataset sizes (1 = defaults).
	Scale float64
	// Walks is the PathMining budget (the paper uses 1M on a 3.3M-node
	// graph; proportionally fewer on the smaller synthetic graphs).
	Walks int
	// MaxContext is the largest context cutoff swept (the paper plots to
	// 400).
	MaxContext int
	// Step is the context-size sweep step.
	Step int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Walks == 0 {
		c.Walks = 200000
	}
	if c.MaxContext == 0 {
		c.MaxContext = 400
	}
	if c.Step == 0 {
		c.Step = 10
	}
	return c
}

// Cuts returns the context-size cutoffs swept by the quality experiments.
func (c Config) Cuts() []int {
	c = c.WithDefaults()
	var cuts []int
	for k := c.Step; k <= c.MaxContext; k += c.Step {
		cuts = append(cuts, k)
	}
	return cuts
}

// PRF bundles precision, recall, and F1.
type PRF struct {
	Precision, Recall, F1 float64
}

// Score computes PRF for hits out of k returned and gtSize relevant.
func Score(hits, k, gtSize int) PRF {
	var p PRF
	if k > 0 {
		p.Precision = float64(hits) / float64(k)
	}
	if gtSize > 0 {
		p.Recall = float64(hits) / float64(gtSize)
	}
	if p.Precision+p.Recall > 0 {
		p.F1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}

// F1Curve evaluates F1 at each cutoff of a ranking against a ground-truth
// set.
func F1Curve(ranking []topk.Item, gt map[kg.NodeID]bool, cuts []int) []float64 {
	out := make([]float64, len(cuts))
	hits := 0
	pos := 0
	for ci, cut := range cuts {
		for pos < cut && pos < len(ranking) {
			if gt[kg.NodeID(ranking[pos].ID)] {
				hits++
			}
			pos++
		}
		k := cut
		if k > len(ranking) {
			k = len(ranking)
		}
		out[ci] = Score(hits, k, len(gt)).F1
	}
	return out
}

// Algorithms evaluated by the context-quality experiments.
const (
	AlgContextRW  = "ContextRW"
	AlgRandomWalk = "RandomWalk"
)

// Ranking computes the full context ranking (up to k nodes) for one
// algorithm. ContextRW uses the configured walk budget; RandomWalk uses
// the paper's PageRank parameters.
func Ranking(g *kg.Graph, query []kg.NodeID, alg string, cfg Config, k int) []topk.Item {
	cfg = cfg.WithDefaults()
	var sel ctxsel.Selector = ctxsel.ContextRW{Walks: cfg.Walks, Seed: cfg.Seed}
	if alg == AlgRandomWalk {
		sel = ctxsel.RandomWalk{}
	}
	return ctxsel.Select(context.Background(), sel, g, query, k)
}

// QualityData caches the F1 sweeps for one dataset+domain: algorithm →
// query size → F1 value per cut. Figures 2–4 and Table 2 all read from it.
type QualityData struct {
	Dataset string
	Domain  string
	Cuts    []int
	F1      map[string]map[int][]float64
	// QueryNames helps label series ("Pitt, Clooney", ...).
	QueryNames []string
}

// ComputeQuality runs both algorithms across query sizes 2..6 and
// evaluates F1 against the planted ground truth at every cutoff.
func ComputeQuality(d *gen.Dataset, domain string, cfg Config) (*QualityData, error) {
	cfg = cfg.WithDefaults()
	sc := d.Scenario(domain)
	cuts := cfg.Cuts()
	qd := &QualityData{
		Dataset:    d.Name,
		Domain:     domain,
		Cuts:       cuts,
		F1:         map[string]map[int][]float64{AlgContextRW: {}, AlgRandomWalk: {}},
		QueryNames: sc.Query,
	}
	for size := 2; size <= len(sc.Query); size++ {
		query, err := sc.QueryIDs(d.Graph, size)
		if err != nil {
			return nil, err
		}
		gt := sc.GroundTruthIDs(d.Graph, size)
		for _, alg := range []string{AlgContextRW, AlgRandomWalk} {
			ranking := Ranking(d.Graph, query, alg, cfg, cfg.MaxContext)
			qd.F1[alg][size] = F1Curve(ranking, gt, cuts)
		}
	}
	return qd, nil
}

// AverageF1 averages the per-query-size curves of one algorithm.
func (qd *QualityData) AverageF1(alg string) []float64 {
	out := make([]float64, len(qd.Cuts))
	n := 0
	for _, curve := range qd.F1[alg] {
		for i, v := range curve {
			out[i] += v
		}
		n++
	}
	if n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// MaxF1 returns the maximum F1 of a curve and the cut where it occurs.
func MaxF1(cuts []int, curve []float64) (best float64, atCut int) {
	for i, v := range curve {
		if v > best {
			best = v
			atCut = cuts[i]
		}
	}
	return best, atCut
}

// queryLabel renders "Pitt, Clooney, DiCaprio" style series names from
// full entity names (last word of each).
func queryLabel(names []string, size int) string {
	parts := make([]string, 0, size)
	for _, n := range names[:size] {
		fields := strings.Fields(n)
		parts = append(parts, fields[len(fields)-1])
	}
	return strings.Join(parts, ", ")
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// fmtF renders a float with 3 decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// sortedKeys returns the sorted int keys of a map.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

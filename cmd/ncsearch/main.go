// Command ncsearch runs a notable-characteristics search from the command
// line.
//
//	ncsearch -dataset yago -q "Angela Merkel,Barack Obama" -k 100
//	ncsearch -graph facts.tsv -q "Camera Alpha-7,Camera X-Pro9"
//	ncsearch -dataset yago -queries sweep.txt -k 30
//	ncsearch -dataset yago -selector randomwalk -refine
//
// The query is resolved against node names (fuzzy matching included), the
// context is selected with ContextRW (or -selector randomwalk), and the
// notable characteristics are printed with their scores and significance
// probabilities.
//
// With -queries FILE, each non-empty line of FILE is one query
// (comma-separated entity names, # starts a comment); the whole file runs
// as one Engine.DoBatch — amortizing graph traversal across the
// queries — and per-query plus aggregate timing is reported.
//
// With -refine, queries are read interactively from stdin — one per
// line — against a single warm engine, the intended exploratory loop:
// add or remove one entity and re-search. Each answer reports its
// latency and the per-layer cache-hit deltas, so the fast path (seed
// vectors with -selector randomwalk, warm selector entries, cached
// comparison reports) is directly observable from the terminal.
//
// Searches run under an interrupt-cancelled context: Ctrl-C aborts an
// in-flight search cleanly (it stops within one PageRank sweep, mining
// stride or label test) instead of leaving it burning CPU.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/qcache"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "triple file (.tsv/.nt) or snapshot (.kgsnap) to load")
		dataset   = flag.String("dataset", "", "built-in dataset: yago | lmdb | authors | products | figure1")
		queryStr  = flag.String("q", "", "comma-separated query entity names")
		queryFile = flag.String("queries", "", "file with one query per line (comma-separated names): batch mode")
		refine    = flag.Bool("refine", false, "interactive mode: read one query per line from stdin against a single warm engine")
		k         = flag.Int("k", 100, "context size |C|")
		selector  = flag.String("selector", "contextrw", "context selector: contextrw | randomwalk | simrank | jaccard")
		walks     = flag.Int("walks", 200000, "PathMining walk budget")
		alpha     = flag.Float64("alpha", 0.05, "significance level")
		policy    = flag.String("policy", "strict", "unseen-value policy: strict | pooled")
		seed      = flag.Int64("seed", 1, "random seed")
		showCtx   = flag.Int("show-context", 10, "context nodes to print")
		showAll   = flag.Bool("all", false, "print non-notable characteristics too")
	)
	flag.Parse()
	switch *selector {
	case notable.SelectorContextRW, notable.SelectorRandomWalk, notable.SelectorSimRank, notable.SelectorJaccard:
	default:
		fmt.Fprintf(os.Stderr, "ncsearch: unknown -selector %q (want contextrw | randomwalk | simrank | jaccard)\n", *selector)
		os.Exit(2)
	}
	switch *policy {
	case notable.PolicyStrict, notable.PolicyPooled:
	default:
		fmt.Fprintf(os.Stderr, "ncsearch: unknown -policy %q (want strict | pooled)\n", *policy)
		os.Exit(2)
	}

	if *queryStr == "" && *queryFile == "" && !*refine {
		fmt.Fprintln(os.Stderr, "ncsearch: -q, -queries, or -refine is required")
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the in-flight search cleanly; a second interrupt
	// falls back to the default hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	g, err := loadGraph(*graphPath, *dataset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncsearch:", err)
		os.Exit(1)
	}
	engine := notable.NewEngine(g, notable.Options{
		ContextSize: *k,
		Selector:    *selector,
		Walks:       *walks,
		Alpha:       *alpha,
		Policy:      *policy,
		Seed:        *seed,
	})
	fmt.Printf("graph: %s (epoch %d)\n", g.Stats(), engine.Epoch())

	if *refine {
		if err := runRefine(ctx, engine, os.Stdin); err != nil {
			fail(err)
		}
		return
	}
	if *queryFile != "" {
		if err := runBatch(ctx, engine, g, *queryFile); err != nil {
			fail(err)
		}
		return
	}

	names := splitNames(*queryStr)
	query, err := engine.Resolve(names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncsearch:", err)
		for _, n := range unresolvedNames(err, names) {
			if hits := engine.Suggest(n, 3); len(hits) > 0 {
				fmt.Fprintf(os.Stderr, "  did you mean for %q:", n)
				for _, h := range hits {
					fmt.Fprintf(os.Stderr, " %q", h.Name)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		os.Exit(1)
	}
	fmt.Print("query:")
	for _, id := range query {
		fmt.Printf(" %q", g.NodeName(id))
	}
	fmt.Println()

	res, err := engine.Do(ctx, notable.Query{Nodes: query})
	if err != nil {
		fail(err)
	}

	fmt.Printf("\ncontext (top %d of %d):\n", min(*showCtx, len(res.Context)), len(res.Context))
	for i, item := range res.Context {
		if i >= *showCtx {
			break
		}
		fmt.Printf("  %2d. %-40s %.6f\n", i+1, g.NodeName(item.ID), item.Score)
	}

	fmt.Println("\nnotable characteristics:")
	printed := 0
	for _, c := range res.Characteristics {
		if !c.Notable() && !*showAll {
			continue
		}
		marker := " "
		if c.Notable() {
			marker = "*"
		}
		fmt.Printf("  %s %-24s score=%.4f via %-11s  P(inst)=%.4f P(card)=%.4f\n",
			marker, c.Name, c.Score, c.Kind, c.InstP, c.CardP)
		printed++
	}
	if printed == 0 {
		fmt.Println("  (none at this significance level; try -all to see every label)")
	}
}

// runBatch reads one query per line from path, resolves every name, runs
// the whole file as a single DoBatch, and reports per-query results with
// aggregate timing. Ctrl-C aborts the whole batch cleanly.
func runBatch(ctx context.Context, engine *notable.Engine, g *notable.Graph, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var queries []notable.Query
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		query, err := engine.Resolve(splitNames(line)...)
		if err != nil {
			return fmt.Errorf("line %q: %w", line, err)
		}
		queries = append(queries, notable.Query{Nodes: query})
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("%s: no queries", path)
	}

	start := time.Now()
	results, err := engine.DoBatch(ctx, queries)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// %w keeps the cancellation identity so main exits 130.
			return fmt.Errorf("interrupted after %v: %w", time.Since(start), err)
		}
		return err
	}
	elapsed := time.Since(start)

	for i, res := range results {
		notables := res.NotableOnly()
		fmt.Printf("\n[%d] %s — %d context nodes, %d notable / %d tested\n",
			i+1, lines[i], len(res.Context), len(notables), len(res.Characteristics))
		for j, c := range notables {
			if j >= 5 {
				fmt.Printf("      ... %d more\n", len(notables)-j)
				break
			}
			fmt.Printf("      %-24s score=%.4f via %s\n", c.Name, c.Score, c.Kind)
		}
	}
	fmt.Printf("\nbatch of %d queries in %v — %v/query average",
		len(queries), elapsed, elapsed/time.Duration(len(queries)))
	if st := engine.CacheStats(); st.Hits+st.Misses > 0 {
		fmt.Printf(" (cache: %d hits, %d misses, %d KiB resident)",
			st.Hits, st.Misses, st.Bytes/1024)
	}
	fmt.Println()
	return nil
}

// fail prints err and exits — 130 for an interrupt (the shell convention
// for SIGINT), 1 otherwise.
func fail(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ncsearch: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "ncsearch:", err)
	os.Exit(1)
}

// unresolvedNames returns the names err reports as unresolved
// (*notable.UnresolvedError), falling back to all names for other errors
// — the did-you-mean loop then only suggests for what actually failed.
func unresolvedNames(err error, all []string) []string {
	var ue *notable.UnresolvedError
	if errors.As(err, &ue) {
		return ue.Missing
	}
	return all
}

// splitNames splits a comma-separated entity list, trimming blanks.
func splitNames(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		if t := strings.TrimSpace(part); t != "" {
			names = append(names, t)
		}
	}
	return names
}

// cacheDelta renders the per-layer hit/miss movement between two cache
// snapshots, skipping idle layers.
func cacheDelta(before, after qcache.Stats) string {
	var b strings.Builder
	for l := 0; l < qcache.NumLayers; l++ {
		dh := after.Layers[l].Hits - before.Layers[l].Hits
		dm := after.Layers[l].Misses - before.Layers[l].Misses
		if dh == 0 && dm == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s +%dh/+%dm", qcache.Layer(l), dh, dm)
	}
	if b.Len() == 0 {
		return "no cache traffic"
	}
	return b.String()
}

// runRefine reads one query per line from r and serves each from the same
// warm engine — the interactive refinement loop. Every answer prints its
// latency, a result summary, and the per-layer cache deltas; a blank line
// or EOF ends the session with the aggregate cache statistics. Ctrl-C
// aborts the in-flight search and ends the session with the summary.
func runRefine(ctx context.Context, engine *notable.Engine, r io.Reader) error {
	fmt.Println("refine mode: one query per line (comma-separated entity names); blank line or ctrl-d ends")
	sc := bufio.NewScanner(r)
	queries := 0
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			break
		}
		if strings.HasPrefix(line, "#") {
			fmt.Print("> ")
			continue
		}
		query, err := engine.Resolve(splitNames(line)...)
		if err != nil {
			fmt.Println(err)
			for _, n := range unresolvedNames(err, splitNames(line)) {
				if hits := engine.Suggest(n, 3); len(hits) > 0 {
					fmt.Printf("  did you mean for %q:", n)
					for _, h := range hits {
						fmt.Printf(" %q", h.Name)
					}
					fmt.Println()
				}
			}
			fmt.Print("> ")
			continue
		}
		before := engine.CacheStats()
		start := time.Now()
		res, err := engine.Do(ctx, notable.Query{Nodes: query})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Println("interrupted")
				break
			}
			return err
		}
		elapsed := time.Since(start)
		after := engine.CacheStats()
		queries++
		notables := res.NotableOnly()
		fmt.Printf("%v — %d context nodes, %d notable / %d tested  [%s]\n",
			elapsed, len(res.Context), len(notables), len(res.Characteristics),
			cacheDelta(before, after))
		for j, c := range notables {
			if j >= 5 {
				fmt.Printf("      ... %d more\n", len(notables)-j)
				break
			}
			fmt.Printf("      %-24s score=%.4f via %s\n", c.Name, c.Score, c.Kind)
		}
		fmt.Print("> ")
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st := engine.CacheStats()
	fmt.Printf("\nsession: %d queries; cache: %d hits, %d misses, %d evictions, %d KiB resident over %d shards\n",
		queries, st.Hits, st.Misses, st.Evictions, st.Bytes/1024, st.Shards)
	for l := 0; l < qcache.NumLayers; l++ {
		ls := st.Layers[l]
		if ls.Hits+ls.Misses == 0 && ls.Bytes == 0 {
			continue
		}
		fmt.Printf("  %-8s %6d hits %6d misses %8d KiB\n", qcache.Layer(l), ls.Hits, ls.Misses, ls.Bytes/1024)
	}
	return nil
}

func loadGraph(path, dataset string, seed int64) (*notable.Graph, error) {
	if path != "" {
		return notable.LoadGraphFile(path)
	}
	return gen.Named(dataset, seed, 0)
}

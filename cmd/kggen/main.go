// Command kggen emits the synthetic datasets as triple files or binary
// snapshots, so they can be inspected, loaded by ncsearch -graph, or used
// by external tools.
//
//	kggen -dataset yago -o yago.tsv
//	kggen -dataset lmdb -format nt -o lmdb.nt
//	kggen -dataset yago -o yago.kgsnap   # binary snapshot by extension
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/gen"
	"repro/internal/kg"
	"repro/internal/ntriples"
)

func main() {
	var (
		dataset = flag.String("dataset", "yago", "dataset: yago | lmdb | authors | products | figure1")
		out     = flag.String("o", "", "output path (default stdout); .kgsnap writes a binary snapshot")
		format  = flag.String("format", "tsv", "text format: tsv | nt")
		seed    = flag.Int64("seed", 42, "generator seed")
		scale   = flag.Float64("scale", 1, "dataset scale factor")
	)
	flag.Parse()
	var f ntriples.Format
	switch *format {
	case "tsv":
		f = ntriples.FormatTSV
	case "nt":
		f = ntriples.FormatNT
	default:
		fmt.Fprintf(os.Stderr, "kggen: unknown -format %q (want tsv | nt)\n", *format)
		os.Exit(2)
	}

	g, err := gen.Named(*dataset, *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kggen:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "generated:", g.Stats())

	if strings.HasSuffix(*out, ".kgsnap") {
		if err := notable.SaveSnapshotFile(g, *out); err != nil {
			fmt.Fprintln(os.Stderr, "kggen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote snapshot", *out)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kggen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	n, err := dumpGraph(g, w, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kggen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d statements\n", n)
}

// dumpGraph writes the forward (non-inverse) edges plus type statements.
func dumpGraph(g *kg.Graph, w *os.File, format ntriples.Format) (int, error) {
	wr := ntriples.NewWriter(w, format)
	for n := 0; n < g.NumNodes(); n++ {
		id := kg.NodeID(n)
		if t := g.TypeOf(id); t != kg.NoType {
			st := ntriples.Statement{S: g.NodeName(id), P: "type", O: g.TypeName(t)}
			if err := wr.Write(st); err != nil {
				return wr.Count(), err
			}
		}
		for _, e := range g.OutEdges(id) {
			if g.IsInverse(e.Label) {
				continue // reverse edges are re-derived on load
			}
			st := ntriples.Statement{
				S: g.NodeName(id),
				P: g.LabelName(e.Label),
				O: g.NodeName(e.To),
			}
			if err := wr.Write(st); err != nil {
				return wr.Count(), err
			}
		}
	}
	return wr.Count(), wr.Flush()
}

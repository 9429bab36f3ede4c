// Command lightne-gen writes one of the synthetic dataset replicas to disk
// as an edge list (and a labels file when the replica has planted labels),
// completing the generate → embed → evaluate CLI workflow:
//
//	lightne-gen -dataset oag-like -out graph.txt -labels labels.txt
//	lightne -input graph.txt -output emb.txt -dim 32
//	lightne-eval -task classify -embedding emb.txt -labels labels.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"lightne"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "replica name (required); -list shows options")
		out      = flag.String("out", "-", "edge-list output file ('-' for stdout)")
		binary   = flag.Bool("binary", false, "write the LNG1 binary CSR format instead of text")
		compress = flag.Bool("compress", false, "with -binary: write the LNGC compressed format (what lightne -mmap loads)")
		labels   = flag.String("labels", "", "labels output file (optional; only for labeled replicas)")
		seed     = flag.Uint64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list available replicas and exit")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(lightne.DatasetNames(), "\n"))
		return
	}
	if *dataset == "" {
		fmt.Fprintln(os.Stderr, "lightne-gen: -dataset is required (try -list)")
		os.Exit(2)
	}
	ds, err := lightne.GenerateDataset(*dataset, *seed)
	if err != nil {
		fatal(err)
	}
	g := ds.Graph
	fmt.Fprintf(os.Stderr, "lightne-gen: %s: %d vertices, %d edges (paper scale %d / %d)\n",
		ds.Name, g.NumVertices(), g.NumEdges()/2, ds.PaperN, ds.PaperM)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *binary {
		if *compress {
			cg, err := lightne.CompressGraph(g, 0)
			if err != nil {
				fatal(err)
			}
			g = cg
		}
		if err := g.WriteBinary(w); err != nil {
			fatal(err)
		}
	} else {
		if *compress {
			fatal(fmt.Errorf("-compress requires -binary (the text format is uncompressed)"))
		}
		bw := bufio.NewWriter(w)
		for _, e := range g.Edges() {
			if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
				fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
	}

	if *labels != "" {
		if ds.Labels == nil {
			fatal(fmt.Errorf("dataset %s has no labels", ds.Name))
		}
		f, err := os.Create(*labels)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		lw := bufio.NewWriter(f)
		for v, ls := range ds.Labels.Of {
			if len(ls) == 0 {
				continue
			}
			if _, err := fmt.Fprintf(lw, "%d", v); err != nil {
				fatal(err)
			}
			for _, c := range ls {
				if _, err := fmt.Fprintf(lw, " %d", c); err != nil {
					fatal(err)
				}
			}
			if err := lw.WriteByte('\n'); err != nil {
				fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightne-gen:", err)
	os.Exit(1)
}

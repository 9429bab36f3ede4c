// Command lightne-stats prints structural statistics of an edge-list
// graph: size, degree distribution, connected components, and the Ligra+
// compression ratio — the quantities that determine LightNE's memory
// behaviour (paper §4.1, §5.3).
//
//	lightne-stats -input graph.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"lightne"
)

func main() {
	var (
		input    = flag.String("input", "", "edge-list file (required; '-' for stdin)")
		vertices = flag.Int("n", 0, "vertex count (0 = infer)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "lightne-stats: -input is required")
		os.Exit(2)
	}
	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	g, err := lightne.LoadGraph(bufio.NewReader(in), *vertices)
	if err != nil {
		fatal(err)
	}
	n := g.NumVertices()
	m := g.NumEdges() / 2
	fmt.Printf("vertices:        %d\n", n)
	fmt.Printf("edges:           %d\n", m)
	if n > 0 {
		fmt.Printf("average degree:  %.2f\n", float64(g.NumEdges())/float64(n))
	}

	hist := g.DegreeHistogram()
	maxDeg := len(hist) - 1
	fmt.Printf("max degree:      %d\n", maxDeg)
	fmt.Printf("isolated:        %d\n", hist[0])
	// Degree percentiles.
	degrees := make([]int, 0, n)
	for d, c := range hist {
		for k := int64(0); k < c; k++ {
			degrees = append(degrees, d)
		}
	}
	sort.Ints(degrees)
	pick := func(p float64) int {
		if len(degrees) == 0 {
			return 0
		}
		i := int(p * float64(len(degrees)-1))
		return degrees[i]
	}
	fmt.Printf("degree p50/p90/p99: %d / %d / %d\n", pick(0.50), pick(0.90), pick(0.99))

	_, comps := g.ConnectedComponents()
	fmt.Printf("components:      %d\n", comps)

	plainBytes := g.SizeBytes()
	// Compress to measure the parallel-byte ratio.
	cg, err := lightne.CompressGraph(g, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("CSR bytes:       %d\n", plainBytes)
	fmt.Printf("compressed:      %d (%.1f%% of CSR, parallel-byte block %d)\n",
		cg.SizeBytes(), 100*float64(cg.SizeBytes())/float64(plainBytes), cg.BlockSize())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightne-stats:", err)
	os.Exit(1)
}

// Command lightne embeds a graph from an edge-list file using the LightNE
// pipeline and writes the embedding as text (one whitespace-separated row
// per vertex) or, with -binary, in the versioned binary artifact format
// that lightne-serve and lightne-eval load directly.
//
// Usage:
//
//	lightne -input graph.txt -output emb.txt -dim 128 -T 10 -samples 1.0
//	lightne -input graph.txt -output emb.bin -binary   # serving artifact
//
// The input format is one "u v" pair per line; lines starting with '#' or
// '%' are ignored. Per-stage timings are reported on stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"lightne"
)

func main() {
	var (
		input      = flag.String("input", "", "edge-list file (required; '-' for stdin)")
		output     = flag.String("output", "-", "output file for the embedding ('-' for stdout)")
		dim        = flag.Int("dim", 128, "embedding dimension d")
		window     = flag.Int("T", 10, "context window size T")
		samples    = flag.Float64("samples", 1.0, "sample multiple: M = samples*T*m (0.1 = LightNE-Small, 20 = LightNE-Large)")
		budgetMB   = flag.Int64("budget-mb", 0, "pick the largest M whose predicted memory fits this many MB (overrides -samples)")
		seed       = flag.Uint64("seed", 1, "random seed")
		skipProp   = flag.Bool("skip-propagation", false, "omit the spectral-propagation step (paper's very-large-graph mode)")
		noDown     = flag.Bool("no-downsample", false, "disable edge downsampling (plain NetSMF sampling)")
		compress   = flag.Bool("compress", false, "store the graph in Ligra+ parallel-byte compressed form")
		weighted   = flag.Bool("weighted", false, "parse a third column as edge weight (\"u v w\" lines)")
		binaryIn   = flag.Bool("binary-input", false, "read the LNG1/LNGC binary format instead of text")
		mmapIn     = flag.Bool("mmap", false, "memory-map -input as an LNGC compressed graph file (O(1) load, adjacency served from the page cache)")
		validate   = flag.Bool("validate", false, "deep-check graph consistency after loading (recommended for untrusted -mmap files)")
		binaryOut  = flag.Bool("binary", false, "write the embedding in the versioned binary format (what lightne-serve loads fastest)")
		vertices   = flag.Int("n", 0, "vertex count (0 = infer from max ID)")
		propOrder  = flag.Int("prop-order", 10, "spectral propagation polynomial order k")
		oversample = flag.Int("oversample", 0, "extra randomized-SVD sketch columns")
		powerIters = flag.Int("power-iters", 0, "randomized-SVD subspace iterations")
		shards     = flag.Int("shards", 1, "split the incremental (dynamic) sampler's aggregation table across this many shards (rounded up to a power of two, at most 1024; output is bit-identical for any value): a grow stalls one shard only; this command's samplers, per-arc and -batched, group their samples by sorting, with no table, and only check it")
		batched    = flag.Bool("batched", false, "use the radix-batched wave walker, which groups its samples by sorting instead of a hash table (weighted graphs walk via alias tables; output is bit-identical for any wave size, shard count or worker count)")
		waveSize   = flag.Int("wave-size", 0, "in-flight heads per wave of the batched walker (0 = maximum, 2^22); implies nothing without -batched")
		sketch     = flag.Bool("sketch", false, "factorize with the single-pass sketch: the drained sparsifier streams straight into the range finder, never materializing the scaled matrix (lower peak memory; -power-iters is ignored)")
		sketchKind = flag.String("sketch-kind", "sign", "test-matrix family for -sketch: \"sign\" (sparse ±1, memory-optimal) or \"gaussian\" (dense cross-check)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "lightne: -input is required")
		flag.Usage()
		os.Exit(2)
	}

	var g *lightne.Graph
	var err error
	if *mmapIn {
		if *input == "-" {
			fatal(fmt.Errorf("-mmap needs a file path, not stdin"))
		}
		if *weighted {
			fatal(fmt.Errorf("-mmap and -weighted are mutually exclusive (LNGC graphs are unweighted)"))
		}
		g, err = lightne.MmapGraph(*input)
		if err != nil {
			fatal(err)
		}
		defer g.Munmap()
	} else {
		in := os.Stdin
		if *input != "-" {
			f, err := os.Open(*input)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			in = f
		}
		opts := lightne.DefaultGraphOptions()
		opts.Compress = *compress
		switch {
		case *binaryIn:
			g, err = lightne.LoadGraphBinary(bufio.NewReader(in), opts)
		case *weighted:
			if *compress {
				fatal(fmt.Errorf("-weighted and -compress are mutually exclusive"))
			}
			g, err = lightne.LoadWeightedGraph(bufio.NewReader(in), *vertices)
		default:
			g, err = lightne.LoadGraphWithOptions(bufio.NewReader(in), *vertices, opts)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *validate {
		if err := g.Validate(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "loaded graph: %d vertices, %d undirected edges (adjacency %.1f MB%s)\n",
		g.NumVertices(), g.NumEdges()/2, float64(g.SizeBytes())/1e6, compressedTag(g.Compressed()))

	cfg := lightne.DefaultConfig(*dim)
	cfg.T = *window
	cfg.SampleMultiple = *samples
	cfg.Seed = *seed
	cfg.SkipPropagation = *skipProp
	cfg.NoDownsample = *noDown
	cfg.Propagation.Order = *propOrder
	cfg.Oversample = *oversample
	cfg.PowerIters = *powerIters
	cfg.Shards = *shards
	cfg.BatchedWalks = *batched
	cfg.WaveSize = *waveSize
	cfg.StreamedSVD = *sketch
	switch *sketchKind {
	case "sign":
		cfg.Sketch = lightne.SketchSparseSign
	case "gaussian":
		cfg.Sketch = lightne.SketchGaussian
	default:
		fatal(fmt.Errorf("unknown -sketch-kind %q (want \"sign\" or \"gaussian\")", *sketchKind))
	}

	if *budgetMB > 0 {
		m, err := lightne.MaxAffordableSamples(g, cfg, *budgetMB<<20)
		if err != nil {
			fatal(err)
		}
		cfg.M = m
		fmt.Fprintf(os.Stderr, "budget %d MB affords M = %d samples (%.2f x T x m)\n",
			*budgetMB, m, float64(m)/(float64(*window)*float64(g.NumEdges())/2))
	}

	res, err := lightne.Embed(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"embedded: sparsifier %s (nnz %d, %d trials, %d heads), factorization %s, propagation %s, total %s\n",
		res.Timing.Sparsifier.Round(1e6), res.SparsifierNNZ,
		res.SampleStats.Trials, res.SampleStats.Heads,
		res.Timing.SVD.Round(1e6), res.Timing.Propagation.Round(1e6),
		res.Timing.Total().Round(1e6))

	out := os.Stdout
	if *output != "-" {
		f, err := os.Create(*output)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if *binaryOut {
		err = lightne.WriteEmbeddingBinary(out, res.Embedding)
	} else {
		err = lightne.WriteEmbeddingText(out, res.Embedding)
	}
	if err != nil {
		fatal(err)
	}
}

func compressedTag(c bool) string {
	if c {
		return ", parallel-byte compressed"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightne:", err)
	os.Exit(1)
}

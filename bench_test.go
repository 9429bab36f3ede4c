// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, E1-E10 — see DESIGN.md's experiment index),
// plus ablation benches for the design choices LightNE's system sections
// motivate: compression block size (§4.1), xadd vs CAS aggregation (§4.2),
// edge downsampling (§3.2), and spectral propagation (§3.2).
//
// Experiments run in Quick mode under testing.B so `go test -bench=.`
// completes in minutes; `cmd/lightne-bench` runs the full-budget versions.
package lightne_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"lightne"
	"lightne/internal/compress"
	"lightne/internal/eval"
	"lightne/internal/experiments"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/rng"
	"lightne/internal/sampler"
)

// benchExperiment wraps one paper artifact as a benchmark.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run := experiments.All()[id]
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := run(experiments.Options{Seed: 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkE1_PBGComparison(b *testing.B)      { benchExperiment(b, "e1") }
func BenchmarkE2_GraphViteF1(b *testing.B)        { benchExperiment(b, "e2") }
func BenchmarkE3_HyperlinkAUC(b *testing.B)       { benchExperiment(b, "e3") }
func BenchmarkE4_OAGTable4(b *testing.B)          { benchExperiment(b, "e4") }
func BenchmarkE5_TradeoffCurve(b *testing.B)      { benchExperiment(b, "e5") }
func BenchmarkE6_TimeBreakdown(b *testing.B)      { benchExperiment(b, "e6") }
func BenchmarkE7_SampleSizeAblation(b *testing.B) { benchExperiment(b, "e7") }
func BenchmarkE8_VeryLargeHITS(b *testing.B)      { benchExperiment(b, "e8") }
func BenchmarkE9_SmallGraphs(b *testing.B)        { benchExperiment(b, "e9") }
func BenchmarkE10_DatasetStats(b *testing.B)      { benchExperiment(b, "e10") }

// BenchmarkAblation_BlockSize measures the §4.1 trade-off that led the
// paper to block size 64: i-th-neighbor fetch latency on compressed
// adjacency as the block size varies.
func BenchmarkAblation_BlockSize(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	// Rebuild raw CSR arrays for compression at several block sizes.
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	var edges []uint32
	for u := 0; u < n; u++ {
		nbrs := g.Neighbors(uint32(u), nil)
		edges = append(edges, nbrs...)
		offsets[u+1] = offsets[u] + int64(len(nbrs))
	}
	for _, bs := range []int{8, 32, 64, 256} {
		b.Run(sizeName(bs), func(b *testing.B) {
			adj, err := compress.Build(offsets, edges, bs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(adj.SizeBytes()), "bytes")
			src := rng.New(7, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := uint32(src.Intn(n))
				d := int(adj.Degree(u))
				if d == 0 {
					continue
				}
				_ = adj.Nth(u, src.Intn(d))
			}
		})
	}
}

func sizeName(bs int) string {
	switch bs {
	case 8:
		return "block8"
	case 32:
		return "block32"
	case 64:
		return "block64"
	default:
		return "block256"
	}
}

// BenchmarkAblation_XaddVsCAS reproduces the §4.2 claim that the atomic
// fetch-and-add instruction beats a compare-and-swap loop under contention
// on a single counter.
func BenchmarkAblation_XaddVsCAS(b *testing.B) {
	workers := 8
	b.Run("xadd", func(b *testing.B) {
		var counter uint64
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					atomic.AddUint64(&counter, 1)
				}
			}()
		}
		wg.Wait()
	})
	b.Run("cas-loop", func(b *testing.B) {
		var counter uint64
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					for {
						old := atomic.LoadUint64(&counter)
						if atomic.CompareAndSwapUint64(&counter, old, old+1) {
							break
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkAblation_Downsampling compares embedding quality and sparsifier
// size with and without LightNE's edge downsampling at the same trial
// budget (§3.2's "negligible effect on quality" claim).
func BenchmarkAblation_Downsampling(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, down := range []bool{true, false} {
		name := "downsample-on"
		if !down {
			name = "downsample-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := lightne.DefaultConfig(32)
				cfg.SampleMultiple = 1
				cfg.NoDownsample = !down
				cfg.Seed = 5
				res, err := lightne.Embed(ds.Graph, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cr, err := eval.NodeClassification(res.Embedding, ds.Labels.Of, ds.Labels.NumClasses, 0.1, 3, eval.DefaultTrain())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cr.MicroF1, "microF1%")
				b.ReportMetric(float64(res.SparsifierNNZ), "nnz")
			}
		})
	}
}

// BenchmarkAblation_Propagation compares LightNE with and without Step 2
// at a low sample budget, where the paper says propagation matters most.
func BenchmarkAblation_Propagation(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		name := "with-propagation"
		if skip {
			name = "without-propagation"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := lightne.SmallConfig(32)
				cfg.SkipPropagation = skip
				cfg.Seed = 7
				res, err := lightne.Embed(ds.Graph, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cr, err := eval.NodeClassification(res.Embedding, ds.Labels.Of, ds.Labels.NumClasses, 0.1, 3, eval.DefaultTrain())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*cr.MicroF1, "microF1%")
			}
		})
	}
}

// BenchmarkKernel_Sampling measures PathSampling throughput (trials/sec),
// the stage Table 5 shows dominating LightNE-Large.
func BenchmarkKernel_Sampling(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := lightne.DefaultConfig(32)
		cfg.SampleMultiple = 1
		cfg.SkipPropagation = true
		cfg.Seed = uint64(i)
		res, err := lightne.Embed(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SampleStats.Trials)/res.Timing.Sparsifier.Seconds(), "trials/s")
	}
}

// BenchmarkKernel_RandomWalk measures raw walk-step throughput on plain vs
// compressed adjacency (the cost §4.2 discusses around block decoding).
func BenchmarkKernel_RandomWalk(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	plain := ds.Graph
	// Build a compressed copy.
	var arcs []graph.Edge
	for u := 0; u < plain.NumVertices(); u++ {
		for _, v := range plain.Neighbors(uint32(u), nil) {
			if uint32(u) < v {
				arcs = append(arcs, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	copt := graph.DefaultOptions()
	copt.Compress = true
	compressed, err := graph.FromEdges(plain.NumVertices(), arcs, copt)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"plain-csr", plain}, {"parallel-byte", compressed}} {
		b.Run(tc.name, func(b *testing.B) {
			src := rng.New(3, 0)
			u := uint32(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u = tc.g.Walk(u, 8, src)
			}
		})
	}
}

func BenchmarkE11_DynamicEmbedding(b *testing.B)      { benchExperiment(b, "e11") }
func BenchmarkE12_AggregationStrategies(b *testing.B) { benchExperiment(b, "e12") }

func BenchmarkE13_CompressionScaling(b *testing.B) { benchExperiment(b, "e13") }

func BenchmarkE14_FactorizationModes(b *testing.B) { benchExperiment(b, "e14") }

// BenchmarkAblation_BatchedWalks compares the per-edge walking schedule
// (Algorithm 2) against the radix-batched schedule the paper names as
// future work (§4.2): same trial distribution, different memory access
// pattern. At replica scale the adjacency fits in cache, so the sort
// overhead dominates and per-edge wins — precisely the "overhead for
// shuffling the data via a semisort ... vs the overhead for performing
// random reads" trade-off the paper says needs careful analysis; the
// batched schedule only pays off when the graph exceeds LLC.
func BenchmarkAblation_BatchedWalks(b *testing.B) {
	ds, err := gen.OAGLike(1)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	m := int64(2_000_000)
	b.Run("per-edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats, err := sampler.Sample(g, sampler.Config{T: 10, M: m, Downsample: true, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Trials), "trials")
		}
	})
	b.Run("radix-batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats, err := sampler.SampleBatched(g, sampler.Config{T: 10, M: m, Downsample: true, Seed: 3}, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Trials), "trials")
		}
	})
}

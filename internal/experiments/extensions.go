package experiments

import (
	"fmt"
	"time"

	"lightne/internal/core"
	"lightne/internal/dynamic"
	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
)

// E11DynamicEmbedding goes beyond the paper's tables into its §6 future
// work: streaming re-embedding. 30% of a community graph's edges are held
// back and delivered in three batches; the incremental embedder samples
// only each batch, and its quality is compared against a full rebuild of
// the final graph — quantifying the incremental-vs-refresh trade the §1
// deployments (Alibaba/LinkedIn) navigate.
func E11DynamicEmbedding(opt Options) (*Report, error) {
	start := time.Now()
	ds, err := gen.FriendsterSmallLike(opt.Seed)
	if err != nil {
		return nil, err
	}
	full, labels := ds.Graph, ds.Labels
	all := full.Edges()
	cut := len(all) * 7 / 10
	initial, err := graph.FromEdges(full.NumVertices(), all[:cut])
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(32)
	cfg.T = 5
	cfg.SampleMultiple = 3
	if opt.Quick {
		cfg.SampleMultiple = 1
	}
	cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
	cfg.Seed = opt.Seed + 31

	t0 := time.Now()
	emb, err := dynamic.New(initial, cfg)
	if err != nil {
		return nil, err
	}
	initTime := time.Since(t0)

	evalNow := func() (float64, error) {
		x, err := emb.Embed()
		if err != nil {
			return 0, err
		}
		cr, err := eval.NodeClassification(x, labels.Of, labels.NumClasses, 0.1, opt.Seed+32, eval.DefaultTrain())
		if err != nil {
			return 0, err
		}
		return cr.MicroF1, nil
	}

	var rows [][]string
	f1, err := evalNow()
	if err != nil {
		return nil, err
	}
	rows = append(rows, []string{"initial (70% of edges)", dur(initTime), fmt.Sprintf("%d", emb.NumEdges()), "0.00", pct(f1)})

	stream := all[cut:]
	batches := 3
	per := len(stream) / batches
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = len(stream)
		}
		t0 = time.Now()
		if err := emb.AddEdges(stream[lo:hi]); err != nil {
			return nil, err
		}
		batchTime := time.Since(t0)
		f1, err = evalNow()
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("after batch %d (+%d edges)", b+1, hi-lo),
			dur(batchTime),
			fmt.Sprintf("%d", emb.NumEdges()),
			fmt.Sprintf("%.2f", emb.Staleness()),
			pct(f1),
		})
	}
	t0 = time.Now()
	if err := emb.Refresh(); err != nil {
		return nil, err
	}
	refreshTime := time.Since(t0)
	f1, err = evalNow()
	if err != nil {
		return nil, err
	}
	rows = append(rows, []string{"full refresh", dur(refreshTime), fmt.Sprintf("%d", emb.NumEdges()), "0.00", pct(f1)})

	return &Report{
		ID:       "E11",
		Title:    "Extension: streaming/dynamic re-embedding (paper §6 future work)",
		PaperRef: "not in the paper's evaluation; §6 names streaming/dynamic embedding as future work and §1 motivates it via Alibaba/LinkedIn periodic re-embedding",
		Headers:  []string{"state", "sampling time", "edges", "staleness", "Micro-F1@10%"},
		Rows:     rows,
		Notes: []string{
			"incremental batches sample only the new edges; the full refresh resamples everything — compare the sampling-time column",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E12AggregationStrategies tabulates the §4.2 design space: the three
// aggregation strategies on an identical concurrent sample stream.
func E12AggregationStrategies(opt Options) (*Report, error) {
	start := time.Now()
	workers := 8
	perWorker, distinct := 100_000, 200_000
	if opt.Quick {
		perWorker, distinct = 20_000, 50_000
	}
	strategies := []struct {
		name string
		mk   func() aggregator
	}{
		{"per-worker lists + histogram merge", func() aggregator { return newListHistogram(workers) }},
		{"per-worker tables, merged at end (NetSMF)", func() aggregator { return newPerWorkerTables(workers) }},
		{"shared lock-free table, xadd (LightNE)", func() aggregator { return sharedTable{hashtable.New(distinct * 2)} }},
	}
	var rows [][]string
	for _, s := range strategies {
		agg := s.mk()
		t0 := time.Now()
		total := runWorkload(agg, workers, perWorker, distinct, opt.Seed)
		elapsed := time.Since(t0)
		if total != float64(workers*perWorker) {
			return nil, fmt.Errorf("%s lost samples: %.0f of %d", s.name, total, workers*perWorker)
		}
		rows = append(rows, []string{
			s.name, dur(elapsed), fmt.Sprintf("%.1f MB", float64(agg.MemoryBytes())/1e6),
		})
	}
	return &Report{
		ID:       "E12",
		Title:    "Extension: §4.2 aggregation design space on one sample stream",
		PaperRef: "paper §4.2: \"Ultimately, we found that the fastest and most memory-efficient method across all of our inputs was to use sparse parallel hashing\"",
		Headers:  []string{"strategy", "time", "memory"},
		Rows:     rows,
		Notes: []string{
			fmt.Sprintf("%d workers x %d samples over %d distinct edges; every sample accounted for exactly in all strategies", workers, perWorker, distinct),
		},
		Elapsed: time.Since(start),
	}, nil
}

// E13CompressionScaling quantifies the §4.1/§5.3 claim that parallel-byte
// compression is what lets very large graphs fit in memory: adjacency
// footprint and end-to-end sampling time with compression off and on, on
// the two web-graph replicas.
func E13CompressionScaling(opt Options) (*Report, error) {
	start := time.Now()
	datasets := []func(uint64) (*gen.Dataset, error){gen.ClueWebLike, gen.Hyperlink2014Like}
	if opt.Quick {
		datasets = datasets[:1]
	}
	var rows [][]string
	for _, mk := range datasets {
		ds, err := mk(opt.Seed)
		if err != nil {
			return nil, err
		}
		plain := ds.Graph
		compressed, err := plain.ToCompressed(0)
		if err != nil {
			return nil, err
		}
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{{"plain CSR", plain}, {"parallel-byte", compressed}} {
			cfg := core.DefaultConfig(32)
			cfg.T = 2
			cfg.SampleMultiple = 0.5
			cfg.SkipPropagation = true
			cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
			cfg.Seed = opt.Seed + 37
			t0 := time.Now()
			res, err := core.Embed(tc.g, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				ds.Name, tc.name,
				fmt.Sprintf("%.1f MB", float64(tc.g.SizeBytes())/1e6),
				dur(res.Timing.Sparsifier),
				dur(time.Since(t0)),
			})
		}
	}
	return &Report{
		ID:       "E13",
		Title:    "Extension: parallel-byte compression footprint vs walk cost (§4.1, §5.3)",
		PaperRef: "paper §5.3: compression shrinks ClueWeb-Sym from 564GB to 107GB (5.3x), the difference between fitting in 1.5TB or not; §4.2: block decoding makes arbitrary-edge fetches costlier",
		Headers:  []string{"dataset", "adjacency", "memory", "sparsifier time", "total time"},
		Rows:     rows,
		Notes: []string{
			"same embedding configuration on the same graph; compression trades sampling speed for the memory that §5.3 shows is the binding constraint",
		},
		Elapsed: time.Since(start),
	}, nil
}

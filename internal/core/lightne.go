// Package core implements the LightNE pipeline (paper §3.2): Step 1 runs
// NetSMF with edge downsampling to factorize a sparse estimate of the NetMF
// matrix, and Step 2 enhances the resulting embedding with ProNE's spectral
// propagation. Config is the one parameter set of every system the paper
// runs, resolved here and nowhere else. Per-stage wall-clock timing is
// recorded to reproduce the paper's running-time breakdown (Table 5).
package core

import (
	"fmt"
	"time"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/netsmf"
	"lightne/internal/prone"
	"lightne/internal/sampler"
	"lightne/internal/svd"
)

// Config controls a LightNE run.
type Config struct {
	// T is the context window size (paper default 10; the paper's
	// cross-validated choices are 5 for LiveJournal/Hyperlink-PLD, 1 for
	// Friendster, 2 for the 100B-edge graphs).
	T int
	// SampleMultiple sets M = SampleMultiple·T·m. The paper's presets are
	// 0.1 (LightNE-Small) and 20 (LightNE-Large). Ignored if M > 0.
	SampleMultiple float64
	// M optionally fixes the number of PathSampling trials directly.
	M int64
	// Dim is the embedding dimension d (paper: 128 for task graphs, 32 for
	// the 100B-edge graphs).
	Dim int
	// NegSamples is b (default 1).
	NegSamples float64
	// NoDownsample disables LightNE's edge downsampling (for ablations;
	// the zero value keeps downsampling on, as LightNE always runs with it).
	NoDownsample bool
	// C overrides the downsampling constant (<= 0 → log n).
	C float64
	// SkipPropagation omits Step 2, as the paper does for the very large
	// graphs (§5.3).
	SkipPropagation bool
	// Propagation parameterizes Step 2; zero value → ProNE defaults.
	Propagation prone.PropagationConfig
	// Seed fixes all randomness.
	Seed uint64
	// Oversample and PowerIters tune the randomized SVD (0,0 = paper).
	Oversample int
	PowerIters int
	// BatchedWalks selects the radix-batched walk schedule (paper §4.2
	// future work); weighted graphs walk natively via alias tables. The
	// incremental embedder (internal/dynamic) ignores it and WaveSize: its
	// per-batch sampler is per-arc.
	BatchedWalks bool
	// WaveSize caps the in-flight heads per wave of the batched walker's
	// enumerate→walk→group pass; <= 0 picks the maximum (2^22). Only
	// meaningful with BatchedWalks. The embedding is bit-identical for
	// every setting. A pass with more heads than WaveSize walks them in
	// several waves, one after another, at a smaller walk-state footprint,
	// and groups every wave's pairs at the end; at the default a pass of up
	// to 2^22 heads (an RMAT-13 pass at M = 2·T·m draws ~0.8 M) is one wave.
	WaveSize int
	// Shards selects nothing (sampler.Config.Shards): every sampler, the
	// incremental embedder's (internal/dynamic) included, groups its
	// samples by sorting, with no table. It is only checked: more than
	// 1 024 is an error.
	Shards int
	// StreamedSVD factorizes with the single-pass sketch instead of the
	// multi-pass randomized SVD: the drained sparsifier streams through the
	// estimator scaling directly into sketch accumulators,
	// so the scaled matrix is never resident and the dense working set
	// shrinks (see EstimateMemory's sketch mode). PowerIters is ignored;
	// accuracy is bought with oversampling instead.
	StreamedSVD bool
	// Sketch picks the StreamedSVD test-matrix family (zero value:
	// svd.SketchSparseSign, the cheap default; svd.SketchGaussian is the
	// dense cross-check and costs more memory than the multi-pass path).
	Sketch svd.SketchKind
}

// DefaultConfig returns the paper's default configuration at dimension d:
// T = 10, M = 1·T·m, downsampling on, spectral propagation on.
func DefaultConfig(d int) Config {
	return Config{T: 10, SampleMultiple: 1, Dim: d, NegSamples: 1,
		Propagation: prone.DefaultPropagation()}
}

// SmallConfig is the paper's LightNE-Small preset (M = 0.1·T·m).
func SmallConfig(d int) Config {
	c := DefaultConfig(d)
	c.SampleMultiple = 0.1
	return c
}

// LargeConfig is the paper's LightNE-Large preset (M = 20·T·m).
func LargeConfig(d int) Config {
	c := DefaultConfig(d)
	c.SampleMultiple = 20
	return c
}

// NetSMFConfig is the paper's NetSMF baseline at dimension d: the same
// pipeline with downsampling and propagation off (M = 1·T·m; the paper's
// runs raise SampleMultiple, e.g. to 8).
func NetSMFConfig(d int) Config {
	c := DefaultConfig(d)
	c.NoDownsample, c.SkipPropagation = true, true
	return c
}

// samples resolves the trial count: M, else SampleMultiple·T·m with a
// multiple <= 0 read as 1.
func (cfg Config) samples(g *graph.Graph) int64 {
	if cfg.M > 0 {
		return cfg.M
	}
	mult := cfg.SampleMultiple
	if mult <= 0 {
		mult = 1
	}
	return netsmf.MFromMultiple(g, cfg.T, mult)
}

// Sampler resolves the sampling pass's parameters on g — the one place M is
// derived, so the run, the planner and the incremental embedder agree.
func (cfg Config) Sampler(g *graph.Graph) sampler.Config {
	return sampler.Config{T: cfg.T, M: cfg.samples(g), Downsample: !cfg.NoDownsample,
		C: cfg.C, Seed: cfg.Seed, Shards: cfg.Shards}
}

// Timing is the three-stage breakdown reported in Table 5.
type Timing struct {
	Sparsifier  time.Duration
	SVD         time.Duration
	Propagation time.Duration
}

// Total returns the end-to-end time.
func (t Timing) Total() time.Duration { return t.Sparsifier + t.SVD + t.Propagation }

// Result bundles the embedding with diagnostics.
type Result struct {
	// Embedding is the final n×d embedding.
	Embedding *dense.Matrix
	// Initial is the NetSMF embedding before spectral propagation (equal to
	// Embedding when propagation is skipped).
	Initial *dense.Matrix
	// Sigma holds the singular values of the factorized sparsifier.
	Sigma []float64
	// SparsifierNNZ counts nonzeros in the trunc-logged sparsifier.
	SparsifierNNZ int64
	// SampleStats reports the Step-1 sampling pass.
	SampleStats sampler.Stats
	// Timing is the per-stage breakdown.
	Timing Timing
}

// Embed runs LightNE on g: the sampling pass (per-arc, or batched waves
// with BatchedWalks), then EmbedTable.
func Embed(g *graph.Graph, cfg Config) (*Result, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lightne: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.T <= 0 {
		return nil, fmt.Errorf("lightne: window size T must be positive, got %d", cfg.T)
	}
	start := time.Now()
	var (
		table sampler.Sink
		stats sampler.Stats
		err   error
	)
	if cfg.BatchedWalks {
		table, stats, err = sampler.SampleBatched(g, cfg.Sampler(g), cfg.WaveSize)
	} else {
		table, stats, err = sampler.Sample(g, cfg.Sampler(g))
	}
	if err != nil {
		return nil, fmt.Errorf("lightne: sampling: %w", err)
	}
	sampling := time.Since(start)
	res, err := EmbedTable(g, table, stats.Trials, cfg)
	if err != nil {
		return nil, err
	}
	res.SampleStats = stats
	res.Timing.Sparsifier += sampling
	return res, nil
}

// streamChunkEntries caps the raw entries per streamed chunk: 2^20 entries is
// ~12 MiB of drained CSR per chunk, big enough to amortize the per-chunk
// sketch pass and small enough that the one reused transform buffer is
// noise next to the sketch itself. The value never affects results — chunk
// boundaries are whole rows (sampler.ChunkRows) and sketch absorption is
// chunk-order-independent — so it is a constant, not a Config knob.
const streamChunkEntries = 1 << 20

// EmbedTable is the one hand-off from an aggregation sink to the embedding,
// shared by Embed and the incremental embedder (internal/dynamic): the
// fully-sorted drain, the row transform (estimator scaling + trunc_log), the
// factorization, X = U·Σ^{1/2} and (unless SkipPropagation) spectral
// propagation. trials is the realized sample count M̂ accumulated in sink; of
// cfg the sampling fields are not read. A hash-table sink is left intact; a
// full pass's sink hands over its grouped arrays, which the multi-pass
// path reads into a separately allocated scaled matrix, so the raw and the
// scaled CSR are resident together. Result.SampleStats is the caller's to
// fill.
//
// Because per-vertex RNG streams fix the sample multiset, fixed-point
// accumulation is exact and commutative, and the grouping sort (or a
// table's fully-sorted drain) is a pure function of that multiset, the
// drained matrix is bit-identical for every worker count. The scaled matrix is bit-stable too:
// vol(G) is an exact integer for unweighted graphs and a fixed-geometry
// deterministic reduction (par.ReduceFloat64Det) for weighted ones, and the
// transform is a pure function of (entry, vol, degrees).
//
// The multi-pass path transforms all rows at once and runs the randomized
// SVD on the materialized matrix. The matrix is exactly symmetric bitwise —
// every sample counts in both orientations with the same fixed-point weight,
// and the estimator scaling is symmetric in (i, j) — so the SVD reuses it as
// its own transpose instead of materializing a second CSR.
//
// The single-pass path (StreamedSVD) transforms whole-row chunks
// (sampler.ChunkRows) straight into a sketch accumulator: the scaled matrix
// is never materialized — the resident sparse state is the drained raw CSR
// plus one reused chunk buffer — and the dense working set is the sketch's
// 3·n·k + Ω instead of the rSVD's 5·n·k. Each chunk is transformed, then
// absorbed, both row-parallel inside (DESIGN.md, Streaming). Chunks cover
// disjoint whole rows, per-row accumulation into the sketch is sequential,
// and the chunk boundaries are a pure function of the (deterministic)
// drained row pointers.
func EmbedTable(g *graph.Graph, sink sampler.Sink, trials int64, cfg Config) (*Result, error) {
	b := cfg.NegSamples
	if b <= 0 {
		b = 1
	}
	n := g.NumVertices()
	start := time.Now()
	rowPtr, cols, ws := sink.DrainCSR(n)
	var (
		res            *svd.Result
		nnz            int64
		sparsifierTime time.Duration
	)
	if cfg.StreamedSVD {
		sk, err := svd.NewSketch(n, cfg.Dim, svd.SketchOptions{
			Seed:       cfg.Seed + 1,
			Kind:       cfg.Sketch,
			Oversample: cfg.Oversample,
		})
		if err != nil {
			return nil, fmt.Errorf("lightne: sketch: %w", err)
		}
		tr := netsmf.NewTransform(g, rowPtr, cols, ws, b, trials)
		var chunk svd.RowChunk
		bounds := sampler.ChunkRows(rowPtr, streamChunkEntries)
		for c := 0; c+1 < len(bounds); c++ {
			tr.Rows(bounds[c], bounds[c+1], &chunk)
			nnz += chunk.NNZ()
			sk.Absorb(chunk)
		}
		sparsifierTime = time.Since(start)

		start = time.Now()
		if res, err = sk.Factorize(); err != nil {
			return nil, fmt.Errorf("lightne: sketch factorization: %w", err)
		}
	} else {
		mat, err := netsmf.BuildMatrixCSR(g, rowPtr, cols, ws, b, trials)
		if err != nil {
			return nil, err
		}
		nnz = mat.NNZ()
		sparsifierTime = time.Since(start)

		start = time.Now()
		res, err = svd.RandomizedSVD(mat, cfg.Dim, svd.Options{
			Seed:       cfg.Seed + 1,
			Oversample: cfg.Oversample,
			PowerIters: cfg.PowerIters,
			Symmetric:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("lightne: svd: %w", err)
		}
	}
	x := svd.EmbedFromSVD(res)
	out := &Result{
		Embedding:     x,
		Initial:       x,
		Sigma:         res.Sigma,
		SparsifierNNZ: nnz,
		Timing:        Timing{Sparsifier: sparsifierTime, SVD: time.Since(start)},
	}
	if cfg.SkipPropagation {
		return out, nil
	}
	prop := cfg.Propagation
	if prop.Order == 0 {
		prop = prone.DefaultPropagation()
	}
	start = time.Now()
	enhanced, err := prone.Propagate(g, x, prop)
	if err != nil {
		return nil, fmt.Errorf("lightne: propagation: %w", err)
	}
	out.Timing.Propagation = time.Since(start)
	out.Embedding = enhanced
	return out, nil
}

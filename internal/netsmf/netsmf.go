// Package netsmf implements the first stage of LightNE: NetSMF-style
// construction of a sparse, spectrally faithful approximation of the NetMF
// matrix (paper Eq. 1)
//
//	M = trunc_log( vol(G)/(bT) · Σ_{r=1..T} (D⁻¹A)^r D⁻¹ )
//
// via PathSampling with LightNE's edge downsampling, followed by randomized
// SVD to produce the embedding X = U·Σ^{1/2}.
//
// Estimator. For a sample of length r from arc (u,v) ending at (u',v'),
// reversibility of the walk gives
//
//	Pr[(u',v')] = d_{u'}·(P^r)_{u'v'} / vol(G)
//
// independent of the split point s, so the weighted sample counts W (each
// sample is inserted in both orientations, and downsampled heads carry
// weight 1/p_e) satisfy
//
//	E[W_{uv}] = 2·M̂/(T·vol) · d_u · Σ_r (P^r)_{uv},
//
// hence vol²·W / (2·b·M̂·d_u·d_v) is an unbiased estimate of the matrix
// inside trunc_log in Eq. 1 (the 1/T average is absorbed because r is drawn
// uniformly from [1, T]). Setting Downsample=false and letting M grow
// recovers the original NetSMF, which this package also serves as (it is
// the paper's NetSMF baseline).
package netsmf

import (
	"fmt"
	"math"
	"time"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
	"lightne/internal/svd"
)

// Config controls a NetSMF factorization.
type Config struct {
	// T is the context window size (paper default 10).
	T int
	// M is the target number of PathSampling trials. The paper expresses it
	// as multiples of T·m; use MFromMultiple to derive it.
	M int64
	// Dim is the embedding dimension d.
	Dim int
	// NegSamples is b, the number of negative samples (paper default 1).
	NegSamples float64
	// Downsample enables LightNE's degree-based edge downsampling.
	Downsample bool
	// C overrides the downsampling constant (<= 0 → log n).
	C float64
	// Seed fixes all randomness.
	Seed uint64
	// Oversample and PowerIters tune the randomized SVD (0, 0 = paper).
	Oversample int
	PowerIters int
	// BatchedWalks selects the radix-batched walking schedule — the
	// locality optimization the paper names as future work (§4.2).
	// Weighted graphs walk natively via per-vertex alias tables resolved
	// from keyed-hash draws (see graph.AliasNeighbor).
	BatchedWalks bool
	// WaveSize caps the in-flight heads per wave of the batched walker's
	// pipeline; <= 0 picks the maximum (2^22). Only meaningful with
	// BatchedWalks; the sparsifier is bit-identical for every setting.
	WaveSize int
	// Shards splits the sample-aggregation table across a power of two of
	// sub-tables (see sampler.Config.Shards); <= 1 keeps one shared table.
	// The sparsifier is bit-identical for every setting.
	Shards int
	// StreamedSVD replaces the two-pass randomized SVD with the single-pass
	// sketched factorization: the drained sparsifier streams through the
	// estimator scaling and truncated logarithm in bounded chunks directly
	// into a sketch accumulator (svd.Sketch), so the scaled matrix — and in
	// rSVD mode also its transpose — is never resident. Costs accuracy on
	// slowly decaying spectra (no power iteration is possible in one pass;
	// oversampling compensates), buys a strictly lower memory peak.
	// PowerIters is ignored in this mode.
	StreamedSVD bool
	// Sketch selects the test-matrix family for StreamedSVD
	// (svd.SketchSparseSign, the default, or svd.SketchGaussian).
	Sketch svd.SketchKind
}

// MFromMultiple returns M = mult·T·m for a graph with m undirected edges
// (NumEdges()/2 arcs), the parameterization used throughout the paper's
// evaluation (e.g. LightNE-Small = 0.1·T·m, LightNE-Large = 20·T·m).
func MFromMultiple(g *graph.Graph, t int, mult float64) int64 {
	m := float64(g.NumEdges()) / 2
	v := mult * float64(t) * m
	if v < 1 {
		return 1
	}
	return int64(v)
}

// Timing is the per-stage wall-clock breakdown (paper Table 5 columns).
type Timing struct {
	Sparsifier time.Duration // parallel sparsifier construction
	SVD        time.Duration // randomized SVD
}

// Result bundles the embedding with diagnostics.
type Result struct {
	// Embedding is the n×d matrix X = U·Σ^{1/2}.
	Embedding *dense.Matrix
	// Sigma holds the singular values of the factorized matrix.
	Sigma []float64
	// SparsifierNNZ is the nonzero count of the matrix handed to the SVD
	// (after trunc_log pruning).
	SparsifierNNZ int64
	// SampleStats reports the sampling pass.
	SampleStats sampler.Stats
	// Timing is the stage breakdown.
	Timing Timing
}

// sampleTable runs the sampling pass and returns the aggregation sink.
func sampleTable(g *graph.Graph, cfg Config) (sampler.Sink, sampler.Stats, error) {
	scfg := sampler.Config{
		T:          cfg.T,
		M:          cfg.M,
		Downsample: cfg.Downsample,
		C:          cfg.C,
		Seed:       cfg.Seed,
		Shards:     cfg.Shards,
	}
	var table sampler.Sink
	var stats sampler.Stats
	var err error
	if cfg.BatchedWalks {
		table, stats, err = sampler.SampleBatched(g, scfg, cfg.WaveSize)
	} else {
		table, stats, err = sampler.Sample(g, scfg)
	}
	if err != nil {
		return nil, stats, fmt.Errorf("netsmf: sampling: %w", err)
	}
	return table, stats, nil
}

// Run executes the NetSMF stage on g: the sampling pass, then Factorize.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("netsmf: dimension must be positive, got %d", cfg.Dim)
	}
	start := time.Now()
	table, stats, err := sampleTable(g, cfg)
	if err != nil {
		return nil, err
	}
	sampling := time.Since(start)
	res, err := Factorize(g, table, stats.Trials, cfg)
	if err != nil {
		return nil, err
	}
	res.SampleStats = stats
	res.Timing.Sparsifier += sampling
	return res, nil
}

// streamChunkEntries caps the raw entries per streamed chunk: 2^20 entries is
// ~12 MiB of drained CSR per buffer, big enough to amortize the per-chunk
// sketch pass and small enough that the two in-flight transform buffers are
// noise next to the sketch itself. The value never affects results — chunk
// boundaries are whole rows (sampler.ChunkRows) and sketch absorption is
// chunk-order-independent — so it is a constant, not a Config knob.
const streamChunkEntries = 1 << 20

// Factorize is the one hand-off from an aggregation sink to the factorizer,
// shared by Run and the incremental embedder (internal/dynamic): the
// fully-sorted drain, the row transform (estimator scaling + trunc_log), the
// factorization and X = U·Σ^{1/2}. trials is the realized sample count M̂
// accumulated in sink; of cfg only Dim, NegSamples, Seed, Oversample,
// PowerIters, StreamedSVD and Sketch are read. The sink is left intact.
// Result.SampleStats is the caller's to fill.
//
// Because per-vertex RNG streams fix the sample multiset, fixed-point
// accumulation is exact and commutative, and the fully-sorted drain is a pure
// function of that multiset, the drained matrix is bit-identical for every
// Shards setting and worker count. The scaled matrix is bit-stable too:
// vol(G) is an exact integer for unweighted graphs and a fixed-geometry
// deterministic reduction (par.ReduceFloat64Det) for weighted ones, and the
// transform is a pure function of (entry, vol, degrees).
//
// The multi-pass path transforms all rows at once and runs the randomized
// SVD on the materialized matrix. The matrix is exactly symmetric bitwise —
// every sample inserts in both orientations with the same fixed-point weight,
// and the estimator scaling is symmetric in (i, j) — so the SVD reuses it as
// its own transpose instead of materializing a second CSR.
//
// The single-pass path (StreamedSVD) transforms whole-row chunks
// (sampler.ChunkRows) straight into a sketch accumulator: the scaled matrix
// is never materialized — the resident sparse state is the drained raw CSR
// plus two bounded chunk buffers — and the dense working set is the sketch's
// 3·n·k + Ω instead of the rSVD's 5·n·k. The transform of chunk c overlaps
// the absorption of chunk c-1 through a two-deep buffer ring and a consumer
// goroutine. Determinism does not depend on that overlap: chunks cover
// disjoint whole rows, per-row accumulation into the sketch is sequential,
// and the chunk boundaries are a pure function of the (deterministic)
// drained row pointers.
func Factorize(g *graph.Graph, sink sampler.Sink, trials int64, cfg Config) (*Result, error) {
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
			return nil, fmt.Errorf("netsmf: sketch: %w", err)
		}
		tr := newTransform(g, rowPtr, cols, ws, b, trials)

		free := make(chan *svd.RowChunk, 2)
		free <- new(svd.RowChunk)
		free <- new(svd.RowChunk)
		work := make(chan *svd.RowChunk, 2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for cb := range work {
				sk.Absorb(*cb)
				free <- cb
			}
		}()
		bounds := sampler.ChunkRows(rowPtr, streamChunkEntries)
		for c := 0; c+1 < len(bounds); c++ {
			cb := <-free
			tr.rows(bounds[c], bounds[c+1], cb)
			nnz += cb.NNZ()
			work <- cb
		}
		close(work)
		<-done
		sparsifierTime = time.Since(start)

		start = time.Now()
		if res, err = sk.Factorize(); err != nil {
			return nil, fmt.Errorf("netsmf: sketch factorization: %w", err)
		}
	} else {
		mat, err := BuildMatrixCSR(g, rowPtr, cols, ws, b, trials)
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
			return nil, fmt.Errorf("netsmf: svd: %w", err)
		}
	}
	x := svd.EmbedFromSVD(res)
	return &Result{
		Embedding:     x,
		Sigma:         res.Sigma,
		SparsifierNNZ: nnz,
		Timing:        Timing{Sparsifier: sparsifierTime, SVD: time.Since(start)},
	}, nil
}

// BuildMatrixCSR converts a fully-sorted drain (Sink.DrainCSR) into the
// trunc-log NetMF matrix estimate: the row transform over all rows, wrapped
// (and validated) as a CSR. b is the negative-sample count and trials the
// realized sample count M̂ (see the package comment). The drained arrays are
// read, never written.
func BuildMatrixCSR(g *graph.Graph, rowPtr []int64, cols []uint32, ws []float64, b float64, trials int64) (*sparse.CSR, error) {
	n := g.NumVertices()
	var c svd.RowChunk
	newTransform(g, rowPtr, cols, ws, b, trials).rows(0, n, &c)
	mat, err := sparse.FromCSRParts(n, n, c.RowPtr, c.Cols, c.Vals)
	if err != nil {
		return nil, fmt.Errorf("netsmf: building sparsifier: %w", err)
	}
	return mat, nil
}

// transform is the row kernel behind both factorizers — the only place the
// unbiased estimator scaling (package comment) and the truncated logarithm
// of Eq. 1 are applied. It reads a raw drained CSR and never writes it.
type transform struct {
	rowPtr []int64
	cols   []uint32
	ws     []float64
	deg    []float64 // weighted degrees; equals Degrees for unweighted graphs
	scale  float64   // vol² / (2·b·M̂)
}

func newTransform(g *graph.Graph, rowPtr []int64, cols []uint32, ws []float64, b float64, trials int64) *transform {
	vol := g.Volume()
	return &transform{rowPtr: rowPtr, cols: cols, ws: ws, deg: g.Strengths(), scale: vol * vol / (2 * b * float64(trials))}
}

// x is the scaled estimate of raw entry p of row r, the argument of trunc_log.
func (t *transform) x(r int, p int64) float64 {
	return t.ws[p] * t.scale / (t.deg[r] * t.deg[t.cols[p]])
}

// rows writes trunc_log of raw rows [lo, hi) into out as a chunk-local CSR
// (RowLo = lo, RowPtr zero-based), keeping log(x) iff x > 1 in raw order:
// a parallel per-row count, a scan, and a parallel fill into exactly-sized
// arrays, so the output is the same for every worker count and for every
// split of the rows into ranges. out's arrays are reused when large enough.
func (t *transform) rows(lo, hi int, out *svd.RowChunk) {
	n := hi - lo
	if cap(out.RowPtr) < n+1 {
		out.RowPtr = make([]int64, n+1)
	}
	ptr := out.RowPtr[:n+1]
	par.For(n, 64, func(i int) {
		var kept int64
		for p := t.rowPtr[lo+i]; p < t.rowPtr[lo+i+1]; p++ {
			if t.x(lo+i, p) > 1 {
				kept++
			}
		}
		ptr[i] = kept
	})
	ptr[n] = par.ExclusiveScan(ptr[:n])
	if int64(cap(out.Cols)) < ptr[n] {
		out.Cols = make([]uint32, ptr[n])
		out.Vals = make([]float64, ptr[n])
	}
	cols, vals := out.Cols[:ptr[n]], out.Vals[:ptr[n]]
	par.For(n, 64, func(i int) {
		w := ptr[i]
		for p := t.rowPtr[lo+i]; p < t.rowPtr[lo+i+1]; p++ {
			if x := t.x(lo+i, p); x > 1 {
				cols[w] = t.cols[p]
				vals[w] = math.Log(x)
				w++
			}
		}
	})
	*out = svd.RowChunk{RowLo: lo, RowPtr: ptr, Cols: cols, Vals: vals}
}

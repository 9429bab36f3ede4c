// Package prone implements ProNE (Zhang et al., IJCAI'19) on top of
// LightNE's optimized kernels — the paper's "ProNE+" re-implementation
// (§5.2.3) — and the spectral propagation step LightNE applies to the
// NetSMF embedding (paper §3.2, Step 2).
//
// Factorization: ProNE performs a truncated SVD of the modulated, normalized
// graph matrix with entries (paper §3.1)
//
//	M_uv = log( (A_uv / D_u) · Σ_j t_j^α / (b · t_v^α) ),  t_v = Σ_i A_iv/D_i,
//
// with b = 1 and α = 0.75 by default; entries whose argument is ≤ 1 are
// truncated away (trunc_log), keeping the matrix as sparse as A.
//
// Propagation: the embedding is passed through a low-degree Chebyshev
// polynomial in the normalized Laplacian — the Chebyshev-Gaussian band-pass
// filter of the ProNE paper with order k ≈ 10, modulation μ and scale θ —
// followed by a dense re-orthogonalization (QR + small SVD).
package prone

import (
	"fmt"
	"math"
	"time"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/sparse"
	"lightne/internal/svd"
)

// PropagationConfig parameterizes the spectral filter.
type PropagationConfig struct {
	// Order is the polynomial degree k (paper: "k is set to around 10").
	Order int
	// Mu modulates the Laplacian spectrum (ProNE default 0.2). For the PPR
	// filter it doubles as the damping complement (α = 1 - Mu).
	Mu float64
	// Theta is the Gaussian filter scale (ProNE default 0.5); the heat
	// kernel reuses it as the diffusion time.
	Theta float64
	// NormalizeRows L2-normalizes embedding rows at the end (ProNE default).
	NormalizeRows bool
	// Kind selects the filter family (Chebyshev-Gaussian by default).
	Kind Filter
}

// DefaultPropagation returns the ProNE defaults used by the paper.
func DefaultPropagation() PropagationConfig {
	return PropagationConfig{Order: 10, Mu: 0.2, Theta: 0.5, NormalizeRows: true}
}

// Config controls a full ProNE run (factorization + propagation).
type Config struct {
	// Dim is the embedding dimension.
	Dim int
	// Alpha is the modulation exponent (default 0.75).
	Alpha float64
	// NegSamples is b (default 1).
	NegSamples float64
	// Seed fixes the randomized SVD.
	Seed uint64
	// Oversample/PowerIters tune the randomized SVD.
	Oversample int
	PowerIters int
	// Propagation parameterizes the spectral filter.
	Propagation PropagationConfig
}

// DefaultConfig returns ProNE's published defaults for dimension d.
func DefaultConfig(d int) Config {
	return Config{Dim: d, Alpha: 0.75, NegSamples: 1, Propagation: DefaultPropagation()}
}

// Timing is the per-stage breakdown (paper Table 5: ProNE+ has no
// sparsifier stage).
type Timing struct {
	SVD         time.Duration
	Propagation time.Duration
}

// Result bundles ProNE's outputs.
type Result struct {
	// Embedding is the final n×d embedding (after propagation).
	Embedding *dense.Matrix
	// Initial is the factorization embedding before propagation.
	Initial *dense.Matrix
	// MatrixNNZ is the nonzero count of the factorized matrix.
	MatrixNNZ int64
	// Timing is the stage breakdown.
	Timing Timing
}

// FactorizationMatrix builds ProNE's trunc-logged modulated matrix from g.
func FactorizationMatrix(g *graph.Graph, alpha, b float64) (*sparse.CSR, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("prone: empty graph")
	}
	deg := g.Strengths() // weighted degrees; equals Degrees when unweighted
	// t_v = Σ_i A_iv/d_i. For an undirected graph, iterate arcs (v, i).
	tv := make([]float64, n)
	par.For(n, 64, func(vi int) {
		v := uint32(vi)
		d := g.Degree(v)
		var s float64
		for k := 0; k < d; k++ {
			s += g.EdgeWeight(v, k) / deg[g.Neighbor(v, k)]
		}
		tv[vi] = s
	})
	var z float64
	talpha := make([]float64, n)
	for v := 0; v < n; v++ {
		if tv[v] > 0 {
			talpha[v] = math.Pow(tv[v], alpha)
			z += talpha[v]
		}
	}
	// Entries live exactly on the edges of A.
	counts := make([]int64, n+1)
	for v := 0; v < n; v++ {
		counts[v+1] = counts[v] + int64(g.Degree(uint32(v)))
	}
	mat := &sparse.CSR{
		NumRows: n, NumCols: n,
		RowPtr: counts,
		ColIdx: make([]uint32, counts[n]),
		Val:    make([]float64, counts[n]),
	}
	par.For(n, 64, func(ui int) {
		u := uint32(ui)
		d := g.Degree(u)
		w := mat.RowPtr[ui]
		for k := 0; k < d; k++ {
			v := g.Neighbor(u, k)
			mat.ColIdx[w] = v
			mat.Val[w] = (g.EdgeWeight(u, k) / deg[ui]) * z / (b * talpha[v])
			w++
		}
	})
	return mat.TruncLog(), nil
}

// Factorize computes the initial ProNE embedding X = U·Σ^{1/2}.
func Factorize(g *graph.Graph, cfg Config) (*dense.Matrix, int64, error) {
	if cfg.Dim <= 0 {
		return nil, 0, fmt.Errorf("prone: dimension must be positive, got %d", cfg.Dim)
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 0.75
	}
	b := cfg.NegSamples
	if b <= 0 {
		b = 1
	}
	mat, err := FactorizationMatrix(g, alpha, b)
	if err != nil {
		return nil, 0, err
	}
	res, err := svd.RandomizedSVD(mat, cfg.Dim, svd.Options{
		Seed:       cfg.Seed,
		Oversample: cfg.Oversample,
		PowerIters: cfg.PowerIters,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("prone: svd: %w", err)
	}
	return svd.EmbedFromSVD(res), mat.NNZ(), nil
}

// Propagate applies the Chebyshev-Gaussian spectral filter to embedding x
// over graph g and returns the enhanced embedding. x is not modified.
func Propagate(g *graph.Graph, x *dense.Matrix, cfg PropagationConfig) (*dense.Matrix, error) {
	n := g.NumVertices()
	if x.Rows != n {
		return nil, fmt.Errorf("prone: embedding has %d rows, graph has %d vertices", x.Rows, n)
	}
	if cfg.Order <= 1 {
		return x.Clone(), nil
	}
	switch cfg.Kind {
	case FilterHeatKernel:
		return finishPropagation(heatPropagate(g, x, cfg), cfg), nil
	case FilterPPR:
		return finishPropagation(pprPropagate(g, x, cfg), cfg), nil
	}

	// Ã = A + I; DA = row-normalized Ã; M = (I - DA) - μI.
	adj := adjacencyWithSelfLoops(g)
	rowSums := adj.RowSums()
	da := cloneCSR(adj)
	inv := make([]float64, n)
	for i, s := range rowSums {
		if s > 0 {
			inv[i] = 1 / s
		}
	}
	da.ScaleRows(inv)
	mmat := negate(da).AddScaledIdentity(1 - cfg.Mu)

	d := x.Cols
	lx0 := x.Clone()
	lx1 := dense.NewMatrix(n, d)
	sparse.SpMM(lx1, mmat, x)
	tmp := dense.NewMatrix(n, d)
	sparse.SpMM(tmp, mmat, lx1)
	// Lx1 = 0.5·M·Lx1 - X
	par.ForRange(len(lx1.Data), elemGrain, func(lo, hi int) {
		out, t, x0 := lx1.Data[lo:hi], tmp.Data[lo:hi], x.Data[lo:hi]
		for i := range out {
			out[i] = 0.5*t[i] - x0[i]
		}
	})

	conv := lx0.Clone()
	conv.Scale(besselI(0, cfg.Theta))
	addScaled(conv, lx1, -2*besselI(1, cfg.Theta))

	for i := 2; i < cfg.Order; i++ {
		lx2 := dense.NewMatrix(n, d)
		sparse.SpMM(lx2, mmat, lx1)
		sparse.SpMM(tmp, mmat, lx2)
		// Lx2 = (M·Lx2 - 2·Lx1) - Lx0   (Chebyshev three-term recurrence)
		par.ForRange(len(lx2.Data), elemGrain, func(lo, hi int) {
			out, t, l1, l0 := lx2.Data[lo:hi], tmp.Data[lo:hi], lx1.Data[lo:hi], lx0.Data[lo:hi]
			for k := range out {
				out[k] = t[k] - 2*l1[k] - l0[k]
			}
		})
		coeff := 2 * besselI(i, cfg.Theta)
		if i%2 == 1 {
			coeff = -coeff
		}
		addScaled(conv, lx2, coeff)
		lx0, lx1 = lx1, lx2
	}

	// mm = Ã·(X - conv), then re-orthogonalize densely.
	diff := x.Clone()
	addScaled(diff, conv, -1)
	mm := dense.NewMatrix(n, d)
	sparse.SpMM(mm, adj, diff)
	return finishPropagation(mm, cfg), nil
}

// finishPropagation applies the shared tail of every filter: dense
// re-orthogonalization and optional row normalization.
func finishPropagation(mm *dense.Matrix, cfg PropagationConfig) *dense.Matrix {
	emb := redecompose(mm)
	if cfg.NormalizeRows {
		normalizeRows(emb)
	}
	return emb
}

// Run executes ProNE end to end: factorize, then propagate.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	start := time.Now()
	initial, nnz, err := Factorize(g, cfg)
	if err != nil {
		return nil, err
	}
	svdTime := time.Since(start)

	start = time.Now()
	final, err := Propagate(g, initial, cfg.Propagation)
	if err != nil {
		return nil, err
	}
	propTime := time.Since(start)

	return &Result{
		Embedding: final,
		Initial:   initial,
		MatrixNNZ: nnz,
		Timing:    Timing{SVD: svdTime, Propagation: propTime},
	}, nil
}

// adjacencyWithSelfLoops returns A + I as CSR.
func adjacencyWithSelfLoops(g *graph.Graph) *sparse.CSR {
	n := g.NumVertices()
	counts := make([]int64, n+1)
	for v := 0; v < n; v++ {
		counts[v+1] = counts[v] + int64(g.Degree(uint32(v))) + 1
	}
	m := &sparse.CSR{
		NumRows: n, NumCols: n,
		RowPtr: counts,
		ColIdx: make([]uint32, counts[n]),
		Val:    make([]float64, counts[n]),
	}
	par.For(n, 64, func(ui int) {
		u := uint32(ui)
		w := m.RowPtr[ui]
		placedSelf := false
		d := g.Degree(u)
		for k := 0; k < d; k++ {
			v := g.Neighbor(u, k)
			if !placedSelf && v > u {
				m.ColIdx[w] = u
				m.Val[w] = 1
				w++
				placedSelf = true
			}
			m.ColIdx[w] = v
			m.Val[w] = g.EdgeWeight(u, k)
			w++
		}
		if !placedSelf {
			m.ColIdx[w] = u
			m.Val[w] = 1
		}
	})
	return m
}

func cloneCSR(m *sparse.CSR) *sparse.CSR {
	return &sparse.CSR{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]uint32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
}

func negate(m *sparse.CSR) *sparse.CSR {
	out := cloneCSR(m)
	out.Scale(-1)
	return out
}

// elemGrain is the fixed par.ForRange grain of the element-wise updates
// below. Each output element depends only on the same element of its
// inputs, so the result is bit-identical to the serial loop under any split.
const elemGrain = 1 << 14

// addScaled computes dst += c·src element-wise.
func addScaled(dst, src *dense.Matrix, c float64) {
	par.ForRange(len(dst.Data), elemGrain, func(lo, hi int) {
		d, s := dst.Data[lo:hi], src.Data[lo:hi]
		for i := range d {
			d[i] += c * s[i]
		}
	})
}

// redecompose orthogonalizes a propagated n×d matrix: QR, SVD of R, and
// U·Σ^{1/2} — the dense analogue of ProNE's get_embedding_dense. The scaling
// is row-parallel over contiguous rows with the roots hoisted, as in
// svd.EmbedFromSVD (element-wise, so bit-identical to any other order).
func redecompose(m *dense.Matrix) *dense.Matrix {
	q, r := dense.QR(m)
	ur, sigma, _ := dense.SVD(r)
	u := dense.NewMatrix(m.Rows, m.Cols)
	dense.MatMul(u, q, ur)
	roots := make([]float64, len(sigma))
	for j, s := range sigma {
		roots[j] = math.Sqrt(s)
	}
	par.For(u.Rows, 256, func(i int) {
		row := u.Row(i)
		for j := range row {
			row[j] *= roots[j]
		}
	})
	return u
}

// normalizeRows L2-normalizes each row in place (zero rows stay zero).
func normalizeRows(m *dense.Matrix) {
	par.For(m.Rows, 256, func(i int) {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s > 0 {
			inv := 1 / math.Sqrt(s)
			for j := range row {
				row[j] *= inv
			}
		}
	})
}

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
	// Mu modulates the Laplacian spectrum (ProNE default 0.2).
	Mu float64
	// Theta is the Gaussian filter scale (ProNE default 0.5).
	Theta float64
	// NormalizeRows L2-normalizes embedding rows at the end (ProNE default).
	NormalizeRows bool
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
//
// With Ã = A + I and M = (1−μ)I − D̃⁻¹Ã, the filter is the ProNE recurrence
// Lx₁ = ½·M·(M·X) − X, Lx₂ = M·(M·Lx₁) − 2·Lx₁ − Lx₀, conv = Σ cᵢ·Lxᵢ with
// Bessel coefficients, then Ã·(X − conv) re-orthogonalized — two operator
// applications per term. The second one carries the recurrence and the conv
// update as its row epilogue (sparse.Product.RowDone), so a term is two
// SpMMs and nothing else: no element-wise sweep, no allocation.
//
// Buffers (workBuffers n×d, allocated up front): lx0 and lx1 rotate, u holds
// the term's first product M·Lx₁, t receives the second, conv accumulates.
// The epilogue on row i writes Lx₂'s row over Lx₀'s row i, and lx0 and lx1
// swap. The overwrite is safe because the running SpMM reads only u, and
// Lx₀'s row i is touched only by the goroutine that owns row i. After the
// loop u and t are free and take X − conv and its product with Ã.
//
// Every element is computed by the expressions of the unfused version in the
// same order (0.5·t − x; (t − 2·l₁) − l₀; x·b₀ then += c·lx) — kept as
// propagateOracle in the tests — so the output is bit-identical to it at
// every GOMAXPROCS.
func Propagate(g *graph.Graph, x *dense.Matrix, cfg PropagationConfig) (*dense.Matrix, error) {
	n := g.NumVertices()
	if x.Rows != n {
		return nil, fmt.Errorf("prone: embedding has %d rows, graph has %d vertices", x.Rows, n)
	}
	if cfg.Order <= 1 {
		return x.Clone(), nil
	}
	adj := adjacencyWithSelfLoops(g)
	var buf [workBuffers]*dense.Matrix
	for i := range buf {
		buf[i] = dense.NewMatrix(n, x.Cols)
	}
	lx0, lx1, u, t, conv := buf[0], buf[1], buf[2], buf[3], buf[4]
	mul := sparse.Product{M: shiftedLaplacian(adj, invRowSums(adj), 1-cfg.Mu)}

	// Lx₁ = ½·M·(M·X) − X and conv = b₀·X − 2b₁·Lx₁, in the second product's
	// epilogue; lx0 becomes the owned copy of X the loop may overwrite.
	b0, c1 := besselI(0, cfg.Theta), -2*besselI(1, cfg.Theta)
	mul.Y, mul.X = u, x
	mul.Run()
	mul.Y, mul.X = lx1, u
	mul.RowDone = func(i int, yi []float64) {
		xi, l0, cv := x.Row(i), lx0.Row(i), conv.Row(i)
		for j, tv := range yi {
			l1 := 0.5*tv - xi[j]
			yi[j] = l1
			cv[j] = xi[j] * b0
			cv[j] += c1 * l1
		}
		copy(l0, xi)
	}
	mul.Run()

	// One closure for all terms, reading the rotating buffers and the term's
	// coefficient through the captured variables; the row update is the
	// vector kernel dense.ChebyshevStep.
	var coeff float64
	recur := func(i int, yi []float64) {
		dense.ChebyshevStep(lx0.Row(i), lx1.Row(i), conv.Row(i), yi, coeff)
	}
	for i := 2; i < cfg.Order; i++ {
		coeff = 2 * besselI(i, cfg.Theta)
		if i%2 == 1 {
			coeff = -coeff
		}
		mul.Y, mul.X, mul.RowDone = u, lx1, nil
		mul.Run()
		mul.Y, mul.X, mul.RowDone = t, u, recur
		mul.Run()
		lx0, lx1 = lx1, lx0
	}

	// mm = Ã·(X − conv), then re-orthogonalize densely.
	par.ForRange(len(u.Data), elemGrain, func(lo, hi int) {
		diff, x0, cv := u.Data[lo:hi], x.Data[lo:hi], conv.Data[lo:hi]
		for k := range diff {
			diff[k] = x0[k] - cv[k]
		}
	})
	sparse.SpMM(t, adj, u)
	emb := redecompose(t, u)
	if cfg.NormalizeRows {
		normalizeRows(emb)
	}
	return emb, nil
}

// workBuffers is the number of n×d matrices Propagate allocates.
const workBuffers = 5

// WorkspaceBytes is what Propagate allocates for an n-vertex graph with the
// given number of stored arcs and a d-column embedding: Ã's pattern and
// values, the operator's second value array over the same pattern, the
// workBuffers n×d matrices Propagate sizes from the same constant, and the
// working copy of the one QR that re-orthogonalizes the result.
// core.EstimateMemory prices the propagation stage with it.
func WorkspaceBytes(n int, arcs int64, d int) int64 {
	nnz := arcs + int64(n)
	pattern := int64(n+1)*8 + nnz*4
	return pattern + 2*nnz*8 + (workBuffers+1)*int64(n)*int64(d)*8
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

// invRowSums returns 1/rowsum for every row of m with a positive sum, and 0
// for the others (negative and NaN sums included).
func invRowSums(m *sparse.CSR) []float64 {
	inv := m.RowSums()
	for i, s := range inv {
		if s > 0 {
			inv[i] = 1 / s
		} else {
			inv[i] = 0
		}
	}
	return inv
}

// shiftedLaplacian returns c·I − D⁻¹Ã (D⁻¹ = diag(inv)) as a second value
// array over adj's RowPtr/ColIdx, filled in one parallel pass: entry (u,v)
// is −(w·inv[u]), and the diagonal then gains c.
//
// A column stored more than once in a row — the diagonal of a graph that
// already had a self-loop, or a parallel arc of a multigraph, which an LNG1
// file can carry though FromEdges merges duplicates — is one entry
// of the operator: the run's values are summed left to right into its first
// slot (c last, as the identity was merged last) and the other slots hold 0,
// which adds nothing to a finite product. Ã itself keeps every stored entry.
func shiftedLaplacian(adj *sparse.CSR, inv []float64, c float64) *sparse.CSR {
	val := make([]float64, len(adj.Val))
	par.For(adj.NumRows, 64, func(u int) {
		lo, hi := adj.RowPtr[u], adj.RowPtr[u+1]
		head, diag := lo, lo
		for p := lo; p < hi; p++ {
			v := -(adj.Val[p] * inv[u])
			if p > lo && adj.ColIdx[p] == adj.ColIdx[p-1] {
				val[head] += v
				continue
			}
			head = p
			val[p] = v
			if adj.ColIdx[p] == uint32(u) {
				diag = p
			}
		}
		val[diag] += c
	})
	return &sparse.CSR{NumRows: adj.NumRows, NumCols: adj.NumCols, RowPtr: adj.RowPtr, ColIdx: adj.ColIdx, Val: val}
}

// elemGrain is the par.ForRange grain of Propagate's one element-wise pass
// (X − conv). Each output element depends only on the same element of its
// inputs, so the result is bit-identical to the serial loop under any split.
const elemGrain = 1 << 14

// redecompose orthogonalizes a propagated n×d matrix: QR, SVD of R, and
// U·Σ^{1/2} — the dense analogue of ProNE's get_embedding_dense. Q overwrites
// m and the result is written into out (same shape, returned). The scaling
// is row-parallel over contiguous rows with the roots hoisted, as in
// svd.EmbedFromSVD (element-wise, so bit-identical to any other order).
func redecompose(m, out *dense.Matrix) *dense.Matrix {
	q, r := dense.QRInPlace(m)
	ur, sigma, _ := dense.SVD(r)
	dense.MatMul(out, q, ur)
	roots := make([]float64, len(sigma))
	for j, s := range sigma {
		roots[j] = math.Sqrt(s)
	}
	par.For(out.Rows, 256, func(i int) {
		row := out.Row(i)
		for j := range row {
			row[j] *= roots[j]
		}
	})
	return out
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

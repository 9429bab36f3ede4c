// Package svd implements the randomized SVD of Halko, Martinsson & Tropp,
// exactly following the paper's Algorithm 3 and its MKL-routine mapping:
//
//  1. sample Gaussian O (n×k) and P (k×k)    // vsRngGaussian
//  2. Y = Aᵀ·O                               // mkl_sparse_s_mm
//  3. orthonormalize Y                       // sgeqrf + sorgqr
//  4. B = A·Y                                // mkl_sparse_s_mm
//  5. Z = B·P                                // cblas_sgemm
//  6. orthonormalize Z                       // sgeqrf + sorgqr
//  7. C = Zᵀ·B                               // cblas_sgemm
//  8. SVD  C = U·Σ·Vᵀ                        // sgesvd
//  9. return Z·U, Σ                          // cblas_sgemm
//
// Step 9 of the paper also lifts the right factor, Y·V. The embedding is
// U·Σ^{1/2} and A is symmetric (its right singular vectors are its left ones
// up to sign), so neither factorizer computes it.
//
// Our kernels come from internal/dense and internal/sparse. Two optional
// robustness knobs extend the paper's algorithm: oversampling (factor a few
// extra columns and truncate) and subspace (power) iterations, both standard
// in the randomized-SVD literature and both defaulting to the paper's
// configuration (none).
package svd

import (
	"fmt"
	"math"

	"lightne/internal/dense"
	"lightne/internal/par"
	"lightne/internal/sparse"
)

// Options configures RandomizedSVD.
type Options struct {
	// Seed drives the Gaussian test matrices; fixed seed → fixed output.
	Seed uint64
	// Oversample adds extra sketch columns beyond the requested rank and
	// truncates the result. 0 follows the paper.
	Oversample int
	// PowerIters applies (A·Aᵀ)^q to the sketch before projecting, sharpening
	// the subspace when the spectrum decays slowly. 0 follows the paper.
	PowerIters int
	// Symmetric declares A = Aᵀ, letting every Aᵀ product reuse A instead of
	// materializing a.Transpose() — this halves the resident CSR memory. The
	// trunc-logged NetMF sparsifier qualifies exactly: both orientations of a
	// sample accumulate the identical fixed-point weight and the estimator
	// scaling is symmetric in (i, j), so its sorted CSR transposes to itself
	// bitwise and the result is bit-identical with the option on or off
	// (TestRandomizedSVDSymmetricEquivalence). Setting it for a matrix that
	// is not exactly symmetric silently computes the wrong factorization.
	Symmetric bool
}

// Result holds the left factor of a truncated SVD A ≈ U·diag(Sigma)·Vᵀ; for
// the symmetric matrices factorized here V equals U up to column signs.
type Result struct {
	U     *dense.Matrix // n×d, left singular vectors
	Sigma []float64     // d singular values, descending
}

// RandomizedSVD computes a rank-d approximate SVD of the (square, typically
// symmetric) sparse matrix a. It returns an error on invalid shapes; d is
// clamped to the matrix dimension.
func RandomizedSVD(a *sparse.CSR, d int, opt Options) (*Result, error) {
	if a.NumRows != a.NumCols {
		return nil, fmt.Errorf("svd: matrix must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	n := a.NumRows
	if d <= 0 {
		return nil, fmt.Errorf("svd: rank must be positive, got %d", d)
	}
	if n == 0 {
		return nil, fmt.Errorf("svd: empty matrix")
	}
	if d > n {
		d = n
	}
	k := d + opt.Oversample
	if k > n {
		k = n
	}

	at := a
	if !opt.Symmetric {
		at = a.Transpose()
	}

	// Step 1: Gaussian sketches.
	o := dense.NewMatrix(n, k)
	o.FillGaussian(opt.Seed)
	p := dense.NewMatrix(k, k)
	p.FillGaussian(opt.Seed + 0x9e3779b97f4a7c15)

	// Step 2: Y = Aᵀ·O.
	y := dense.NewMatrix(n, k)
	sparse.SpMM(y, at, o)

	// Optional subspace iteration: Y ← Aᵀ(A·Y), re-orthonormalizing.
	var tmp *dense.Matrix
	if opt.PowerIters > 0 {
		tmp = dense.NewMatrix(n, k)
	}
	for q := 0; q < opt.PowerIters; q++ {
		dense.QRInPlace(y)
		sparse.SpMM(tmp, a, y)
		sparse.SpMM(y, at, tmp)
	}

	// Step 3: orthonormalize Y. Y is dead once its Q exists, so Q takes its
	// storage (QRInPlace is bit-identical to QR).
	dense.QRInPlace(y)

	// Step 4: B = A·Y.
	b := dense.NewMatrix(n, k)
	sparse.SpMM(b, a, y)

	// Step 5: Z = B·P.
	z := dense.NewMatrix(n, k)
	dense.MatMul(z, b, p)

	// Step 6: orthonormalize Z, in place like Y.
	dense.QRInPlace(z)

	// Step 7: C = Zᵀ·B (k×k). The fixed-geometry product: MatMulATB's fold
	// order follows the schedule, which made same-seed embeddings differ
	// from run to run on more than one core.
	c := dense.NewMatrix(k, k)
	dense.MatMulATBDet(c, z, b)

	// Step 8: SVD of the small projected matrix.
	cu, sigma, _ := dense.SVD(c)

	// Step 9: lift back U = Z·CU; truncate to rank d.
	u := dense.NewMatrix(n, k)
	dense.MatMul(u, z, cu)
	return &Result{U: truncateCols(u, d), Sigma: sigma[:d]}, nil
}

// truncateCols returns the first d columns of m (copying when d < m.Cols).
// Row-parallel: each row is one contiguous copy.
func truncateCols(m *dense.Matrix, d int) *dense.Matrix {
	if d == m.Cols {
		return m
	}
	out := dense.NewMatrix(m.Rows, d)
	par.For(m.Rows, 256, func(i int) {
		copy(out.Row(i), m.Row(i)[:d])
	})
	return out
}

// EmbedFromSVD converts an SVD result into the embedding X = U·Σ^{1/2}
// used by NetSMF and LightNE (paper §3.2). Row-parallel over contiguous row
// slices with the square roots hoisted; per-element work is independent, so
// the output is bit-identical to the sequential scaling.
func EmbedFromSVD(r *Result) *dense.Matrix {
	roots := make([]float64, len(r.Sigma))
	for j, s := range r.Sigma {
		if s > 0 {
			roots[j] = math.Sqrt(s)
		}
	}
	x := r.U.Clone()
	par.For(x.Rows, 256, func(i int) {
		row := x.Row(i)
		for j := range row {
			row[j] *= roots[j]
		}
	})
	return x
}

// Package dense provides the dense linear-algebra kernels LightNE obtains
// from Intel MKL in the paper (§4.3): parallel matrix-matrix products
// (cblas_sgemm), Householder QR with explicit Q formation (LAPACKE_sgeqrf +
// LAPACKE_sorgqr), a small dense SVD (LAPACKE_sgesvd), and Gaussian random
// matrix generation (vsRngGaussian).
//
// Matrices are row-major float64. The embedding pipelines only ever run
// dense kernels on tall-skinny (n×d) or tiny (d×d) operands with d ≤ a few
// hundred. GEMM is ikj-order and parallel over rows of the output, which is
// the contiguous axis of a row-major operand, on the row-accumulate kernel it
// shares with sparse.SpMM and Aᵀ·B (AccumulateRows); the SVD is one-sided
// Jacobi (unconditionally convergent, high relative accuracy) on column-major
// copies and only ever sees d×d inputs. Householder QR is the other exception
// to row-major: its inner loops run down columns, so qr.go works on
// four-column panels and parallelizes over them (layout, parallel axis and
// determinism in its header). The inner loops exist in Go, in AVX and, for
// the row accumulate and the Chebyshev epilogue, in AVX-512, bit-identical
// to each other (kernels.go).
//
// Determinism: a kernel here is bit-identical across GOMAXPROCS when each
// output element is computed by one goroutine in a fixed order (MatMul and
// AccumulateRows, QR, Transpose, Scale, FillGaussian) or when its reduction
// geometry is a function of the shape alone (MatMulATB, CombineTree).
package dense

import (
	"fmt"
	"math"

	"lightne/internal/par"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row i at Data[i*Cols : (i+1)*Cols]
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps existing data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("dense: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	transposeInto(t.Data, m.Data, m.Rows, m.Cols)
	return t
}

// transposeInto writes the transpose of the rows×cols row-major src into dst
// (cols×rows row-major) in 32×32 tiles, parallel over tiles of the longer
// dimension. Within a tile the inner loop runs along the operand whose row
// stride is the long dimension: that stride is typically a power of two, so
// its tile rows collide in one cache set and must each be touched only once.
func transposeInto(dst, src []float64, rows, cols int) {
	const tile = 32
	if rows >= cols {
		par.For((rows+tile-1)/tile, 8, func(t int) {
			i0 := t * tile
			i1 := min(i0+tile, rows)
			for j := 0; j < cols; j++ {
				out := dst[j*rows+i0 : j*rows+i1]
				in := src[i0*cols+j:]
				for i := range out {
					out[i] = in[i*cols]
				}
			}
		})
		return
	}
	par.For((cols+tile-1)/tile, 8, func(t int) {
		j0 := t * tile
		j1 := min(j0+tile, cols)
		for i := 0; i < rows; i++ {
			in := src[i*cols+j0 : i*cols+j1]
			out := dst[j0*rows+i:]
			for j, x := range in {
				out[j*rows] = x
			}
		}
	})
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	par.For(len(m.Data), 1<<14, func(i int) { m.Data[i] *= s })
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
// Parallel block-reduce; max is order-independent, so the result is exactly
// the sequential answer for every worker count.
func (m *Matrix) MaxAbs() float64 {
	return par.MaxFloat64(len(m.Data), 1<<14, 0, func(i int) float64 {
		return math.Abs(m.Data[i])
	})
}

// FillGaussian fills m with independent N(0,1) draws. Rows use distinct RNG
// streams derived from seed, so the result is deterministic under any
// parallel schedule. This replaces MKL's vsRngGaussian.
func (m *Matrix) FillGaussian(seed uint64) {
	par.ForRange((m.Rows+7)/8, 2, func(lo, hi int) {
		fillNormRows(m.Data, m.Cols, seed, 8*lo, min(8*hi, m.Rows))
	})
}

// AccumulateRows sets y = Σ_p a[p]·x.Row(idx[p]), the row-times-matrix AXPY
// chain under both SpMM (a, idx = a CSR row) and MatMul (a, idx = the
// nonzeros of a row of A). x must have len(y) columns.
//
// y[j] is 0 + a[0]·x₀[j] + a[1]·x₁[j] + … added left to right in one
// goroutine, on every form of addRows (kernels.go), so the result is
// bit-identical to the one-entry loop (signed zeros and infinities included;
// a NaN stays a NaN, its payload being the register allocator's choice in
// either loop) and to itself at every GOMAXPROCS.
func AccumulateRows(y, a []float64, idx []uint32, x *Matrix) {
	clear(y)
	addRows(y, a, idx, x.Data, len(y))
}

// MatMul computes C = A·B. C must be preallocated with shape
// (A.Rows × B.Cols) and is overwritten. Parallel over rows of A with
// ikj loop order (streams rows of B, cache friendly for row-major): row i
// of C is AccumulateRows over the entries of A's row i that are not exactly
// zero, gathered first so a zero still skips its row of B whatever that row
// holds. This is the cblas_sgemm stand-in.
func MatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	par.ForRange(a.Rows, 8, func(lo, hi int) {
		vals := make([]float64, 0, a.Cols)
		ks := make([]uint32, 0, a.Cols)
		for i := lo; i < hi; i++ {
			vals, ks = vals[:0], ks[:0]
			for k, aik := range a.Row(i) {
				if aik != 0 {
					vals = append(vals, aik)
					ks = append(ks, uint32(k))
				}
			}
			AccumulateRows(c.Row(i), vals, ks, b)
		}
	})
}

// MatMulATB computes C = Aᵀ·B where A is n×p and B is n×q, producing p×q,
// bit-identically for every GOMAXPROCS: the shared row space is split into
// the fixed blocks of par.DetBounds (a function of n alone), each block
// accumulates its p×q partial product sequentially, and the partials are
// folded by a fixed pairwise tree (CombineTree).
func MatMulATB(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MatMulATB shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	n, p, q := a.Rows, a.Cols, b.Cols
	if n == 0 || p == 0 || q == 0 {
		c.Zero()
		return
	}
	bounds := par.DetBounds(n)
	partials := make([][]float64, len(bounds)-1)
	par.ForBlocks(bounds, func(bi, lo, hi int) {
		acc := make([]float64, p*q)
		atbRows(acc, a, b, lo, hi)
		partials[bi] = acc
	})
	CombineTree(partials)
	copy(c.Data, partials[0])
}

// atbRows adds rows lo…hi-1 of Aᵀ·B into the p×q accumulator acc. Row k of
// acc gains Σ_i a[i][k]·b.Row(i) over the rows whose a[i][k] is not exactly
// zero, in ascending i: the order in which the row update
// acc[k][j] += a[i][k]·b[i][j] (i outer, k inner) adds into each element, run
// on the row-accumulate kernel with a[·][k] gathered first.
func atbRows(acc []float64, a, b *Matrix, lo, hi int) {
	p, q := a.Cols, b.Cols
	vals := make([]float64, 0, hi-lo)
	rows := make([]uint32, 0, hi-lo)
	for k := 0; k < p; k++ {
		vals, rows = vals[:0], rows[:0]
		for i := lo; i < hi; i++ {
			if aik := a.Data[i*p+k]; aik != 0 {
				vals = append(vals, aik)
				rows = append(rows, uint32(i))
			}
		}
		addRows(acc[k*q:(k+1)*q], vals, rows, b.Data, q)
	}
}

// CombineTree folds equal-length partial-sum vectors pairwise: partials[i]
// absorbs partials[i+stride] for stride = 1, 2, 4, …, leaving the total in
// partials[0]. The pairing depends only on len(partials), so for a fixed
// block geometry the float addition order — hence the result, bitwise — is
// identical for every worker count.
func CombineTree(partials [][]float64) {
	for stride := 1; stride < len(partials); stride *= 2 {
		pairs := make([]int, 0, (len(partials)+2*stride-1)/(2*stride))
		for i := 0; i+stride < len(partials); i += 2 * stride {
			pairs = append(pairs, i)
		}
		par.For(len(pairs), 1, func(pi int) {
			dst, src := partials[pairs[pi]], partials[pairs[pi]+stride]
			for j, v := range src {
				dst[j] += v
			}
		})
	}
}

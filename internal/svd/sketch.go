// Single-pass sketched factorization (the SketchNE direction): instead of
// the multi-pass randomized SVD in rsvd.go — which needs the full sparse
// matrix (and, without the Symmetric option, its transpose) resident for
// repeated SpMM passes — the matrix is consumed ONCE, as a stream of
// row chunks, against two fixed random test matrices Ω (n×k, the range
// sketch) and Ψ (n×l, the co-range sketch, l > k):
//
//	Y += A_chunk·Ω;  Z += A_chunk·Ψ     // the only pass over A
//	Q, _ = qr(Y)                        // range of A
//	X = (ΨᵀQ)† (ZᵀQ)                    // least-squares core, X ≈ QᵀAQ
//	X = (X+Xᵀ)/2; X = Û·Σ·V̂ᵀ           // tiny dense SVD
//	U = Q·Û                             // lift, truncate to rank d
//
// The algebra is the practical sketching scheme of Tropp, Yurtsever,
// Udell & Cevher specialized to symmetric A: A ≈ QQᵀA together with
// AQ ≈ Q(QᵀAQ) gives ΨᵀAQ ≈ (ΨᵀQ)·(QᵀAQ), and ΨᵀA = Zᵀ by symmetry, so
// the core is the least-squares solution of an l×k system built entirely
// from streamed quantities — no second pass over A. The co-range sketch
// must be strictly taller than the range sketch: with l = k the system is
// square and the residual of A outside range(Q) is amplified by the inverse
// unchecked (the classical Halko §5.6 instability — singular-value
// estimates overshoot by large factors on flat spectra); with l − k on the
// order of k the pseudo-inverse damps it to a constant factor. NewSketch
// therefore fixes l = k + d + 1. Power iteration is impossible in one pass;
// the remaining accuracy gap is bought with oversampling, which is why
// DefaultSketchOversample is more generous than the multi-pass default
// (none).
//
// Determinism. Absorb writes only the Y and Z rows its chunk covers, each
// row accumulated sequentially in the chunk's entry order; chunks never
// split a row, so concurrent Absorb calls over disjoint chunks touch
// disjoint memory and the accumulators are independent of both absorption
// order and GOMAXPROCS. Everything downstream is either serial (QR, solve,
// Jacobi SVD) or fixed-geometry tree-reduced (MatMulATB, the sparse-sign
// projection), so for a fixed seed the factorization is bit-identical
// across worker counts — locked down by TestSketchBitIdentical*.
package svd

import (
	"fmt"
	"math"
	"sync/atomic"

	"lightne/internal/dense"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// SketchKind selects the random test matrix of the single-pass sketch.
type SketchKind int

const (
	// SketchSparseSign (the default, and SketchNE's choice) draws s random
	// ±1 entries per row of Ω and of Ψ. Absorbing an entry costs 2·s ≪ k+l
	// adds instead of two dense axpys, and each test matrix stores 4·s bytes
	// per row instead of 8·k (8·l) — both the flop and the memory win that
	// make sketching strictly cheaper than the multi-pass path. The common
	// 1/√s normalization is omitted: it cancels between ΨᵀQ and ZᵀQ (and
	// scales Y without moving range(Y)), so Q, X and the factorization are
	// invariant.
	SketchSparseSign SketchKind = iota
	// SketchGaussian materializes dense n×k and n×l N(0,1) test matrices —
	// the classical choice with the sharpest theory, kept as a cross-check.
	// Costs k+l flops per absorbed entry and 8·(k+l) bytes per row.
	SketchGaussian
)

// String names the kind as the CLI spells it (-sketch-kind).
func (k SketchKind) String() string {
	switch k {
	case SketchSparseSign:
		return "sign"
	case SketchGaussian:
		return "gaussian"
	default:
		return fmt.Sprintf("SketchKind(%d)", int(k))
	}
}

// DefaultSignNNZ is the sparse-sign density s when SketchOptions.SignNNZ is
// unset: 8 nonzeros per row, SketchNE's regime (their s ∈ [8, 16]).
const DefaultSignNNZ = 8

// DefaultSketchOversample is the extra sketch width when
// SketchOptions.Oversample is unset: d/4, floored at 8. The single-pass
// scheme has no power iteration to sharpen the subspace, so unlike the
// multi-pass default (no oversampling) it always oversamples; d/4 keeps the
// resident sketch accumulators (n·(k+l) floats, see SketchWidths) strictly
// below the multi-pass path's five n×d for every d ≥ 32 (see
// core.EstimateMemory's sketch mode).
func DefaultSketchOversample(d int) int {
	v := d / 4
	if v < 8 {
		v = 8
	}
	return v
}

// SketchWidths reports the realized sketch geometry for an n×n matrix,
// target rank d and oversample (<= 0 applies the default): k = d+oversample
// columns in the range sketch Y and l = k+d+1 in the co-range sketch Z, both
// clamped to n. Exported so the memory planner prices the sketch mode with
// the exact widths NewSketch will use.
func SketchWidths(n, d, oversample int) (k, l int) {
	if d > n {
		d = n
	}
	if oversample <= 0 {
		oversample = DefaultSketchOversample(d)
	}
	k = d + oversample
	if k > n {
		k = n
	}
	l = k + d + 1
	if l > n {
		l = n
	}
	return k, l
}

// SketchOptions configures NewSketch.
type SketchOptions struct {
	// Seed drives the test matrix; fixed seed → bit-fixed factorization.
	Seed uint64
	// Kind picks the test-matrix family (zero value: SketchSparseSign).
	Kind SketchKind
	// Oversample adds extra sketch columns beyond the requested rank
	// (k = d + Oversample); <= 0 applies DefaultSketchOversample.
	Oversample int
	// SignNNZ is the ±1 entries per Ω row for SketchSparseSign; <= 0
	// applies DefaultSignNNZ. Clamped to the sketch width k.
	SignNNZ int
}

// RowChunk is a contiguous block of whole CSR rows handed to Absorb:
// row RowLo+i holds Cols/Vals[RowPtr[i]:RowPtr[i+1]] (RowPtr is zero-based
// within the chunk, len = rows+1). Chunks from one producer must cover
// disjoint row ranges; within a row, entry order fixes the float
// accumulation order, so producers that guarantee sorted columns (the
// sparsifier's CSR) extend their bit-stability through the sketch.
type RowChunk struct {
	RowLo  int
	RowPtr []int64
	Cols   []uint32
	Vals   []float64
}

// Rows returns the number of rows the chunk covers.
func (c *RowChunk) Rows() int { return len(c.RowPtr) - 1 }

// NNZ returns the number of entries in the chunk.
func (c *RowChunk) NNZ() int64 {
	if len(c.RowPtr) == 0 {
		return 0
	}
	return c.RowPtr[len(c.RowPtr)-1]
}

// Sketch accumulates Y = A·Ω and Z = A·Ψ from streamed row chunks of a
// symmetric n×n sparse matrix A and factorizes the result without ever
// holding A. Absorb may be called concurrently for chunks covering disjoint
// row ranges.
type Sketch struct {
	n, d, k, l int
	kind       SketchKind

	y *dense.Matrix // n×k range accumulator, surrendered to Factorize
	z *dense.Matrix // n×l co-range accumulator
	// Gaussian test matrices (nil for sparse-sign).
	omega *dense.Matrix // n×k
	psi   *dense.Matrix // n×l

	// Sparse-sign test matrices: row v of Ω has ±1 at the folded entries
	// signIdx[v·s : (v+1)·s] — column in the low 31 bits (e&signCol), sign
	// in bit 31 (set: −1); psiIdx likewise for Ψ (column space of width l).
	signIdx []uint32
	psiIdx  []uint32
	s       int

	nnz       atomic.Int64
	factorize atomic.Bool // Factorize consumed the accumulators
}

// psiSeedSalt decorrelates Ψ's per-row streams from Ω's; the co-range
// sketch must be statistically independent of the range sketch for the
// least-squares core to damp the residual rather than refit it.
const psiSeedSalt = 0x9e3779b97f4a7c15

// NewSketch prepares a single-pass sketch for an n×n symmetric matrix and
// target rank d (clamped to n). The test matrix is generated immediately
// from per-row RNG streams, so two sketches with equal (n, d, options)
// absorb identically regardless of scheduling.
func NewSketch(n, d int, opt SketchOptions) (*Sketch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("svd: sketch needs a positive dimension, got n=%d", n)
	}
	if d <= 0 {
		return nil, fmt.Errorf("svd: sketch rank must be positive, got %d", d)
	}
	if d > n {
		d = n
	}
	k, l := SketchWidths(n, d, opt.Oversample)
	if opt.Kind == SketchSparseSign && l > signCol {
		return nil, fmt.Errorf("svd: sketch width %d exceeds the %d columns a sign entry can index", l, signCol)
	}
	sk := &Sketch{n: n, d: d, k: k, l: l, kind: opt.Kind,
		y: dense.NewMatrix(n, k), z: dense.NewMatrix(n, l)}
	switch opt.Kind {
	case SketchGaussian:
		sk.omega = dense.NewMatrix(n, k)
		sk.omega.FillGaussian(opt.Seed)
		sk.psi = dense.NewMatrix(n, l)
		sk.psi.FillGaussian(opt.Seed ^ psiSeedSalt)
	case SketchSparseSign:
		s := opt.SignNNZ
		if s <= 0 {
			s = DefaultSignNNZ
		}
		if s > k {
			s = k
		}
		sk.s = s
		sk.signIdx = sparseSignRows(n, k, s, opt.Seed)
		sk.psiIdx = sparseSignRows(n, l, s, opt.Seed^psiSeedSalt)
	default:
		return nil, fmt.Errorf("svd: unknown sketch kind %d", int(opt.Kind))
	}
	return sk, nil
}

// signCol masks the column out of a folded sparse-sign entry; bit 31 above
// it is the sign (set: −1). NewSketch keeps every width ≤ signCol.
const signCol = 1<<31 - 1

// sparseSignRows draws s distinct ±1 column positions per row of an n×width
// sparse-sign test matrix from per-row RNG streams, each folded with its sign
// into one entry (see signCol): row v is a pure function of (seed, v),
// independent of scheduling.
func sparseSignRows(n, width, s int, seed uint64) []uint32 {
	idx := make([]uint32, n*s)
	par.ForRange(n, 64, func(lo, hi int) {
		var src rng.Source
		for v := lo; v < hi; v++ {
			src.Seed(seed, uint64(v))
			base := v * s
			for t := 0; t < s; t++ {
				// Rejection-sample a column not already used by this row
				// (s ≤ width, so a free column always exists).
				for {
					pos := uint32(src.Intn(width))
					dup := false
					for u := 0; u < t; u++ {
						if idx[base+u]&signCol == pos {
							dup = true
							break
						}
					}
					if !dup {
						idx[base+t] = pos
						break
					}
				}
				idx[base+t] |= uint32(src.Uint64()&1) << 31
			}
		}
	})
	return idx
}

// Dims reports the matrix dimension n and realized sketch width k.
func (sk *Sketch) Dims() (n, k int) { return sk.n, sk.k }

// AbsorbedNNZ returns the total entry count absorbed so far.
func (sk *Sketch) AbsorbedNNZ() int64 { return sk.nnz.Load() }

// Absorb accumulates Y[rows of c] += A_chunk·Ω and Z[rows of c] += A_chunk·Ψ.
// Rows are processed in parallel; each row's entries accumulate sequentially
// in chunk order, so the result is independent of GOMAXPROCS. Safe to call
// concurrently with other Absorb calls whose chunks cover disjoint row ranges
// (the producer contract); must not overlap Factorize.
func (sk *Sketch) Absorb(c RowChunk) {
	rows := c.Rows()
	if rows < 0 || c.RowLo < 0 || c.RowLo+rows > sk.n {
		panic(fmt.Sprintf("svd: Absorb chunk rows [%d,%d) outside matrix of %d rows",
			c.RowLo, c.RowLo+rows, sk.n))
	}
	if sk.factorize.Load() {
		panic("svd: Absorb after Factorize")
	}
	if rows == 0 {
		return
	}
	switch sk.kind {
	case SketchGaussian:
		par.For(rows, 8, func(i int) {
			yrow := sk.y.Row(c.RowLo + i)
			zrow := sk.z.Row(c.RowLo + i)
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				w := c.Vals[p]
				om := sk.omega.Row(int(c.Cols[p]))
				for j, o := range om {
					yrow[j] += w * o
				}
				ps := sk.psi.Row(int(c.Cols[p]))
				for j, o := range ps {
					zrow[j] += w * o
				}
			}
		})
	default: // SketchSparseSign
		// x − w is x + (−w) in IEEE 754 and flipping w's sign bit is exact,
		// so xoring the entry's sign into w adds the same bits a branch on
		// the (fair-coin) sign would, without the mispredicts.
		s := sk.s
		par.For(rows, 32, func(i int) {
			yrow := sk.y.Row(c.RowLo + i)
			zrow := sk.z.Row(c.RowLo + i)
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				w := math.Float64bits(c.Vals[p])
				base := int(c.Cols[p]) * s
				psi := sk.psiIdx[base : base+s]
				for t, e := range sk.signIdx[base : base+s] {
					yrow[e&signCol] += math.Float64frombits(w ^ uint64(e>>31)<<63)
					f := psi[t]
					zrow[f&signCol] += math.Float64frombits(w ^ uint64(f>>31)<<63)
				}
			}
		})
	}
	sk.nnz.Add(c.NNZ())
}

// Factorize closes the stream and returns the rank-d approximate SVD of the
// absorbed matrix. The Y accumulator is consumed (its storage becomes QR
// scratch) and Z is released as soon as its projection is taken, so the
// sketch's dense peak stays at the two accumulators (n·(k+l) floats) plus
// the test matrices. A Sketch is single-use: Absorb and Factorize both panic
// after this returns.
func (sk *Sketch) Factorize() (*Result, error) {
	if sk.factorize.Swap(true) {
		panic("svd: Factorize called twice")
	}
	// Range basis. R is discarded: the core comes from the co-range sketch.
	q, _ := dense.QRInPlace(sk.y)
	sk.y = nil
	// m1 = ΨᵀQ (l×k) and m2 = ZᵀQ (l×k); both fixed-geometry deterministic.
	var m1 *dense.Matrix
	if sk.kind == SketchGaussian {
		m1 = dense.NewMatrix(sk.l, sk.k)
		dense.MatMulATB(m1, sk.psi, q)
		sk.psi, sk.omega = nil, nil
	} else {
		m1t := dense.NewMatrix(sk.k, sk.l)
		sk.signProject(m1t, q, sk.psiIdx)
		m1 = m1t.Transpose()
		sk.signIdx, sk.psiIdx = nil, nil
	}
	m2 := dense.NewMatrix(sk.l, sk.k)
	dense.MatMulATB(m2, sk.z, q)
	sk.z = nil
	// Least squares (ΨᵀQ)·X ≈ ZᵀQ via QR of the tall l×k system:
	// m1 = Q₂R₂, X = R₂⁻¹·(Q₂ᵀ·m2). The pseudo-inverse of the oversampled
	// system (l > k) is what damps the out-of-range residual of A.
	q2, r2 := dense.QRInPlace(m1)
	rhs := dense.NewMatrix(sk.k, sk.k)
	dense.MatMulATB(rhs, q2, m2)
	x, err := dense.SolveUpper(r2, rhs)
	if err != nil {
		return nil, fmt.Errorf("svd: sketch core solve: %w (increase Oversample, or the absorbed matrix is empty)", err)
	}
	// X estimates QᵀAQ, which is exactly symmetric for symmetric A;
	// symmetrizing removes the least-squares' asymmetric noise before the SVD.
	for i := 0; i < sk.k; i++ {
		for j := i + 1; j < sk.k; j++ {
			v := (x.At(i, j) + x.At(j, i)) / 2
			x.Set(i, j, v)
			x.Set(j, i, v)
		}
	}
	cu, sigma, _ := dense.SVD(x)
	u := dense.NewMatrix(sk.n, sk.k)
	dense.MatMul(u, q, cu)
	return &Result{U: truncateCols(u, sk.d), Sigma: sigma[:sk.d]}, nil
}

// signProject computes out = QᵀS (k×width) for a sparse-sign test matrix S
// given by its folded entries idx: row v of S scatters ±Q[v,:] into the s
// columns it occupies. The fixed blocks of par.DetBounds and a pairwise-tree
// combine, exactly like MatMulATB, keep it bit-identical across worker
// counts.
func (sk *Sketch) signProject(out *dense.Matrix, q *dense.Matrix, idx []uint32) {
	k, s := sk.k, sk.s
	width := out.Cols
	bounds := par.DetBounds(sk.n)
	partials := make([][]float64, len(bounds)-1)
	par.ForBlocks(bounds, func(bi, lo, hi int) {
		acc := make([]float64, k*width)
		for v := lo; v < hi; v++ {
			qv := q.Row(v)
			base := v * s
			for _, e := range idx[base : base+s] {
				col := int(e & signCol)
				if e>>31 != 0 {
					for a, qa := range qv {
						acc[a*width+col] -= qa
					}
				} else {
					for a, qa := range qv {
						acc[a*width+col] += qa
					}
				}
			}
		}
		partials[bi] = acc
	})
	dense.CombineTree(partials)
	copy(out.Data, partials[0])
}

// AbsorbCSR feeds an in-memory CSR (rowPtr global, len numRows+1) through
// Absorb in fixed-size chunks — the non-streaming convenience used by tests
// and by callers that already hold the matrix.
func (sk *Sketch) AbsorbCSR(rowPtr []int64, cols []uint32, vals []float64, maxChunkEntries int64) {
	numRows := len(rowPtr) - 1
	if numRows > sk.n {
		numRows = sk.n
	}
	if maxChunkEntries < 1 {
		maxChunkEntries = 1
	}
	lo := 0
	for lo < numRows {
		hi := lo + 1
		for hi < numRows && rowPtr[hi+1]-rowPtr[lo] <= maxChunkEntries {
			hi++
		}
		local := make([]int64, hi-lo+1)
		base := rowPtr[lo]
		for i := range local {
			local[i] = rowPtr[lo+i] - base
		}
		sk.Absorb(RowChunk{
			RowLo:  lo,
			RowPtr: local,
			Cols:   cols[base:rowPtr[hi]],
			Vals:   vals[base:rowPtr[hi]],
		})
		lo = hi
	}
}

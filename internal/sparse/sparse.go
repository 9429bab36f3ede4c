// Package sparse provides the sparse linear algebra LightNE obtains from
// MKL's Sparse BLAS in the paper (§4.3): a CSR matrix with parallel
// sparse-times-dense products (SPMM, the mkl_sparse_s_mm stand-in), builders
// from COO triples and from a drained table's CSR parts, row scaling, and
// the entry-wise truncated logarithm that turns the sparsifier into the
// NetMF matrix.
//
// SpMM is the largest single function of a default embed (21 products: two
// in the rSVD, nineteen in the propagation). A row of the product is one
// dense.AccumulateRows — the row-accumulate kernel shared with
// dense.MatMul, in Go, AVX and AVX-512, whose header says why no sum
// moves — so SpMM returns the bits of the one-entry loop it replaced
// (spmmOracle in the tests) at every GOMAXPROCS.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"lightne/internal/dense"
	"lightne/internal/par"
)

// CSR is a compressed sparse row matrix.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int64 // len NumRows+1
	ColIdx           []uint32
	Val              []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 { return m.RowPtr[m.NumRows] }

// MemoryBytes returns the CSR storage footprint.
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*8
}

// FromCOO builds a CSR matrix from triples, summing duplicates. Triples may
// arrive in any order; the input slices are not modified. An out-of-range
// triple is an error naming the first such triple.
//
// The build is serial, for the small matrices it serves (the dense NetMF
// baseline, tests): a count per row, a scatter of each row's triples in
// input order, a stable sort of each row by column, and a merge of equal
// columns. Duplicates are summed in input order.
func FromCOO(rows, cols int, us, vs []uint32, ws []float64) (*CSR, error) {
	if len(us) != len(vs) || len(us) != len(ws) {
		return nil, fmt.Errorf("sparse: COO slice lengths differ (%d, %d, %d)", len(us), len(vs), len(ws))
	}
	rowPtr := make([]int64, rows+1)
	for i, u := range us {
		if int(u) >= rows || int(vs[i]) >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", u, vs[i], rows, cols)
		}
		rowPtr[u+1]++
	}
	for r := 0; r < rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	type entry struct {
		col uint32
		w   float64
	}
	ents, next := make([]entry, len(us)), slices.Clone(rowPtr[:rows])
	for i, u := range us {
		ents[next[u]] = entry{vs[i], ws[i]}
		next[u]++
	}
	colIdx, val := make([]uint32, 0, len(us)), make([]float64, 0, len(us))
	for r := 0; r < rows; r++ {
		row := ents[rowPtr[r]:rowPtr[r+1]]
		slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(a.col, b.col) })
		rowPtr[r] = int64(len(colIdx))
		for i, e := range row {
			if i > 0 && e.col == row[i-1].col {
				val[len(val)-1] += e.w
				continue
			}
			colIdx, val = append(colIdx, e.col), append(val, e.w)
		}
	}
	rowPtr[rows] = int64(len(colIdx))
	return &CSR{NumRows: rows, NumCols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// FromCSRParts wraps pre-built CSR arrays without copying. The arrays must
// already be in CSR form: rowPtr non-decreasing with rowPtr[0] == 0 and
// rowPtr[rows] == len(colIdx) == len(val), and each row's columns strictly
// ascending (grouped, sorted, duplicates merged) — exactly what
// hashtable.GroupCSR produces. All invariants are validated (in parallel),
// so a malformed hand-off fails loudly instead of corrupting the SVD input.
func FromCSRParts(rows, cols int, rowPtr []int64, colIdx []uint32, val []float64) (*CSR, error) {
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: rowPtr has %d entries, want %d", len(rowPtr), rows+1)
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: colIdx/val lengths differ (%d, %d)", len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != int64(len(colIdx)) {
		return nil, fmt.Errorf("sparse: rowPtr endpoints %d..%d, want 0..%d", rowPtr[0], rowPtr[rows], len(colIdx))
	}
	var bad int32
	par.For(rows, 256, func(r int) {
		lo, hi := rowPtr[r], rowPtr[r+1]
		if lo > hi || hi > int64(len(colIdx)) {
			atomic.StoreInt32(&bad, 1)
			return
		}
		for p := lo; p < hi; p++ {
			if int(colIdx[p]) >= cols || (p > lo && colIdx[p] <= colIdx[p-1]) {
				atomic.StoreInt32(&bad, 1)
				return
			}
		}
	})
	if bad != 0 {
		return nil, fmt.Errorf("sparse: CSR parts violate row/column invariants")
	}
	return &CSR{NumRows: rows, NumCols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// At returns entry (i, j), zero if absent: an O(log degree) binary search,
// every builder leaving rows column-sorted. Intended for tests and spot
// checks, not inner loops.
func (m *CSR) At(i int, j uint32) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.Search(len(cols), func(p int) bool { return cols[p] >= j })
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+int64(k)]
	}
	return 0
}

// SpMM computes Y = M·X for dense X, parallel over rows. Y must be
// preallocated with shape (NumRows × X.Cols) and is overwritten.
func SpMM(y *dense.Matrix, m *CSR, x *dense.Matrix) {
	(&Product{Y: y, M: m, X: x}).Run()
}

// Product is a reusable Y = M·X with an optional row epilogue: set the
// fields, call Run, change them, call Run again. Rows fan out with
// par.ForRange; each is one dense.AccumulateRows, so Y[i][j] is one
// left-to-right sum in CSR order inside one goroutine.
//
// RowDone, when set, runs on row i of Y as soon as it is finished, while it
// is still in L1 — where a caller's element-wise update of that row (the
// Chebyshev recurrence in prone.Propagate) costs no extra sweep over n×d. It
// is called concurrently for distinct rows and may read or write row i of
// anything except X, which other rows are still reading.
//
// The parallel body is bound on the first Run, so later Runs allocate
// nothing on one core.
type Product struct {
	Y       *dense.Matrix
	M       *CSR
	X       *dense.Matrix
	RowDone func(i int, yi []float64)

	body func(lo, hi int)
}

// Run computes Y = M·X, overwriting Y, then RowDone per finished row.
func (p *Product) Run() {
	y, m, x := p.Y, p.M, p.X
	if m.NumCols != x.Rows || y.Rows != m.NumRows || y.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			m.NumRows, m.NumCols, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	if p.body == nil {
		p.body = p.rows
	}
	par.ForRange(m.NumRows, 16, p.body)
}

func (p *Product) rows(lo, hi int) {
	y, m, x := p.Y, p.M, p.X
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		a, b := m.RowPtr[i], m.RowPtr[i+1]
		dense.AccumulateRows(yi, m.Val[a:b], m.ColIdx[a:b], x)
		if p.RowDone != nil {
			p.RowDone(i, yi)
		}
	}
}

// Transpose returns Mᵀ, column-sorted like every CSR: the row-major scatter
// emits each transposed row in source-row order.
func (m *CSR) Transpose() *CSR {
	t := &CSR{NumRows: m.NumCols, NumCols: m.NumRows}
	t.RowPtr = make([]int64, m.NumCols+1)
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for r := 0; r < m.NumCols; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	t.ColIdx = make([]uint32, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	next := make([]int64, m.NumCols)
	copy(next, t.RowPtr[:m.NumCols])
	for i := 0; i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := next[c]
			next[c]++
			t.ColIdx[q] = uint32(i)
			t.Val[q] = m.Val[p]
		}
	}
	return t
}

// ScaleRows multiplies row i by s[i] in place.
func (m *CSR) ScaleRows(s []float64) {
	par.For(m.NumRows, 64, func(i int) {
		f := s[i]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			m.Val[p] *= f
		}
	})
}

// TruncLog applies trunc_log(x) = max(0, log x) entry-wise and drops entries
// that become zero (x <= 1), returning a new, typically sparser matrix.
// This is the step that makes the factorization equivalent to DeepWalk and
// that NPR-style shortcuts omit (paper §3.1).
func (m *CSR) TruncLog() *CSR {
	counts := make([]int64, m.NumRows+1)
	par.For(m.NumRows, 64, func(i int) {
		var c int64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.Val[p] > 1 {
				c++
			}
		}
		counts[i+1] = c
	})
	for r := 0; r < m.NumRows; r++ {
		counts[r+1] += counts[r]
	}
	out := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  counts,
		ColIdx:  make([]uint32, counts[m.NumRows]),
		Val:     make([]float64, counts[m.NumRows]),
	}
	par.For(m.NumRows, 64, func(i int) {
		w := out.RowPtr[i]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.Val[p] > 1 {
				out.ColIdx[w] = m.ColIdx[p]
				out.Val[w] = math.Log(m.Val[p])
				w++
			}
		}
	})
	return out
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	s := make([]float64, m.NumRows)
	par.For(m.NumRows, 64, func(i int) {
		var sum float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			sum += m.Val[p]
		}
		s[i] = sum
	})
	return s
}

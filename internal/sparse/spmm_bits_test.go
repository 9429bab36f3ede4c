package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/gen"
	"lightne/internal/rng"
)

// specials are the values a sum can go wrong on without anyone noticing in
// a tolerance test: stored zeros of both signs, NaN and both infinities.
var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// salt overwrites roughly one element in every with a special value.
func salt(data []float64, every int, src *rng.Source) {
	for i := range data {
		if src.Intn(every) == 0 {
			data[i] = specials[src.Intn(len(specials))]
		}
	}
}

// rowLengthMatrix builds a cols-column CSR whose row r holds lens[r%len(lens)]
// entries at random (possibly repeated, unsorted) columns: every remainder
// of the 4-way unroll, the empty row, and rows of two and more full groups.
func rowLengthMatrix(rows, cols int, lens []int, src *rng.Source) *CSR {
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for r := 0; r < rows; r++ {
		for k := 0; k < lens[r%len(lens)]; k++ {
			m.ColIdx = append(m.ColIdx, uint32(src.Intn(cols)))
			m.Val = append(m.Val, src.NormFloat64())
		}
		m.RowPtr[r+1] = int64(len(m.ColIdx))
	}
	return m
}

// rmatAdjacency returns the 0/1 adjacency of an RMAT graph as CSR — the
// power-law row-length profile SpMM sees in propagation.
func rmatAdjacency(tb testing.TB, scale, edgeFactor int) *CSR {
	tb.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: edgeFactor, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumVertices()
	m := &CSR{NumRows: n, NumCols: n, RowPtr: make([]int64, n+1)}
	for u := 0; u < n; u++ {
		m.ColIdx = g.Neighbors(uint32(u), m.ColIdx)
		m.RowPtr[u+1] = int64(len(m.ColIdx))
	}
	m.Val = make([]float64, len(m.ColIdx))
	for i := range m.Val {
		m.Val[i] = 1
	}
	return m
}

// assertSameBits compares element by element on math.Float64bits, so +0 vs
// -0 and a last-place difference both fail. The one class it folds is NaN:
// where the oracle has a NaN, got must have a NaN, of any payload. Go does
// not define NaN payloads, and on amd64 an add of two different NaNs keeps
// whichever the register allocator made the destination — the one-entry loop
// itself would change payloads under a different compiler.
func assertSameBits(t *testing.T, what string, got, want *dense.Matrix) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element (%d,%d) = %x (%g), oracle %x (%g)", what,
				i/want.Cols, i%want.Cols, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// TestSpMMBitIdenticalToOracle: the 4-way row-accumulate kernel must return
// the bits of the one-entry loop it replaced, for every unroll remainder,
// special value and worker count. See DESIGN.md "Numerics".
func TestSpMMBitIdenticalToOracle(t *testing.T) {
	src := rng.New(11, 0)
	plain := rowLengthMatrix(131, 97, []int{0, 1, 3, 4, 5, 8, 9}, src)
	salted := rowLengthMatrix(131, 97, []int{9, 8, 5, 4, 3, 1, 0, 13}, src)
	salt(salted.Val, 5, src)
	rmat := rmatAdjacency(t, 10, 8)
	saltedRMAT := &CSR{NumRows: rmat.NumRows, NumCols: rmat.NumCols, RowPtr: rmat.RowPtr, ColIdx: rmat.ColIdx,
		Val: append([]float64(nil), rmat.Val...)}
	salt(saltedRMAT.Val, 50, src)
	cases := []struct {
		name  string
		m     *CSR
		saltX bool
	}{
		{"rows", plain, false},
		{"rows/special-x", plain, true},
		{"rows/special-both", salted, true},
		{"rmat", rmat, false},
		{"rmat/special-both", saltedRMAT, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, d := range []int{1, 3, 4, 5, 32, 64, 74} {
		for _, tc := range cases {
			x := dense.NewMatrix(tc.m.NumCols, d)
			x.FillGaussian(uint64(d))
			if tc.saltX {
				salt(x.Data, 7, src)
			}
			want := dense.NewMatrix(tc.m.NumRows, d)
			spmmOracle(want, tc.m, x)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := dense.NewMatrix(tc.m.NumRows, d)
				for i := range got.Data {
					got.Data[i] = math.NaN() // SpMM overwrites, never accumulates
				}
				SpMM(got, tc.m, x)
				assertSameBits(t, fmt.Sprintf("%s d=%d procs=%d", tc.name, d, procs), got, want)
			}
		}
	}
}

// TestProductRowDoneBitIdentical drives the epilogue path the way
// propagation does — one Product reused across calls, RowDone rewriting the
// finished row and a second matrix — and checks it against the oracle
// followed by the same update as a separate sweep. Every row must be handed
// to RowDone exactly once. Run under -race (make race) this is the check
// that rows are finished before the hook sees them and never shared.
// See DESIGN.md "Numerics".
func TestProductRowDoneBitIdentical(t *testing.T) {
	m := rmatAdjacency(t, 10, 8)
	n, d := m.NumRows, 33
	x := dense.NewMatrix(n, d)
	x.FillGaussian(5)
	want := dense.NewMatrix(n, d)
	wantAcc := dense.NewMatrix(n, d)
	for rep := 0; rep < 3; rep++ {
		spmmOracle(want, m, x)
		for i := range want.Data {
			want.Data[i] = 0.5*want.Data[i] - x.Data[i]
			wantAcc.Data[i] += 3 * want.Data[i]
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := dense.NewMatrix(n, d)
		acc := dense.NewMatrix(n, d)
		calls := make([]atomic.Int32, n)
		p := Product{Y: got, M: m, X: x, RowDone: func(i int, yi []float64) {
			calls[i].Add(1)
			xi, ai := x.Row(i), acc.Row(i)
			for j, v := range yi {
				v = 0.5*v - xi[j]
				yi[j] = v
				ai[j] += 3 * v
			}
		}}
		for rep := 0; rep < 3; rep++ {
			p.Run()
		}
		for i := range calls {
			if c := calls[i].Load(); c != 3 {
				t.Fatalf("procs=%d: RowDone ran %d times on row %d, want 3", procs, c, i)
			}
		}
		assertSameBits(t, fmt.Sprintf("epilogue y procs=%d", procs), got, want)
		assertSameBits(t, fmt.Sprintf("epilogue acc procs=%d", procs), acc, wantAcc)
	}
}

// A reused Product must not allocate per Run on one core: propagation's
// allocation count is independent of its order only if this holds.
func TestProductRunDoesNotAllocate(t *testing.T) {
	m := rmatAdjacency(t, 8, 4)
	x := dense.NewMatrix(m.NumCols, 8)
	x.FillGaussian(1)
	p := Product{Y: dense.NewMatrix(m.NumRows, 8), M: m, X: x}
	p.Run()
	if a := testing.AllocsPerRun(10, p.Run); a != 0 {
		t.Fatalf("reused Product.Run allocates %v times per call", a)
	}
}

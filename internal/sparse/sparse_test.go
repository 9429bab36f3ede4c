package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"lightne/internal/dense"
	"lightne/internal/rng"
)

func mustCOO(t *testing.T, rows, cols int, us, vs []uint32, ws []float64) *CSR {
	t.Helper()
	m, err := FromCOO(rows, cols, us, vs, ws)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromCOOBasics(t *testing.T) {
	m := mustCOO(t, 3, 3,
		[]uint32{0, 1, 2, 0},
		[]uint32{1, 2, 0, 1},
		[]float64{1, 2, 3, 4})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d want 3 (duplicate merged)", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1)=%g want 5", got)
	}
	if got := m.At(1, 2); got != 2 {
		t.Fatalf("At(1,2)=%g", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0)=%g want 0", got)
	}
}

func TestFromCOOOutOfRange(t *testing.T) {
	if _, err := FromCOO(2, 2, []uint32{5}, []uint32{0}, []float64{1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromCOO(2, 2, []uint32{0}, []uint32{0, 1}, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestRowsSortedAfterBuild(t *testing.T) {
	s := rng.New(2, 0)
	var us, vs []uint32
	var ws []float64
	for i := 0; i < 5000; i++ {
		us = append(us, uint32(s.Intn(50)))
		vs = append(vs, uint32(s.Intn(50)))
		ws = append(ws, 1)
	}
	m := mustCOO(t, 50, 50, us, vs, ws)
	for i := 0; i < 50; i++ {
		for p := m.RowPtr[i] + 1; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p-1] >= m.ColIdx[p] {
				t.Fatalf("row %d unsorted or has duplicates", i)
			}
		}
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	s := rng.New(8, 0)
	for trial := 0; trial < 10; trial++ {
		rows, cols, d := 1+s.Intn(40), 1+s.Intn(40), 1+s.Intn(10)
		nnz := s.Intn(rows * cols)
		var us, vs []uint32
		var ws []float64
		ad := dense.NewMatrix(rows, cols)
		for k := 0; k < nnz; k++ {
			i, j := s.Intn(rows), s.Intn(cols)
			w := s.NormFloat64()
			us = append(us, uint32(i))
			vs = append(vs, uint32(j))
			ws = append(ws, w)
			ad.Set(i, j, ad.At(i, j)+w)
		}
		m := mustCOO(t, rows, cols, us, vs, ws)
		x := dense.NewMatrix(cols, d)
		x.FillGaussian(uint64(trial))
		y := dense.NewMatrix(rows, d)
		SpMM(y, m, x)
		want := dense.NewMatrix(rows, d)
		dense.MatMul(want, ad, x)
		for i := range y.Data {
			if math.Abs(y.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("trial %d: SpMM mismatch at %d: %g vs %g", trial, i, y.Data[i], want.Data[i])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := mustCOO(t, 3, 4,
		[]uint32{0, 1, 2, 2},
		[]uint32{3, 0, 1, 2},
		[]float64{1, 2, 3, 4})
	tt := m.Transpose().Transpose()
	if tt.NumRows != m.NumRows || tt.NumCols != m.NumCols || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed shape or nnz")
	}
	for i := 0; i < m.NumRows; i++ {
		for j := uint32(0); int(j) < m.NumCols; j++ {
			if m.At(i, j) != tt.At(i, j) {
				t.Fatalf("(%d,%d): %g vs %g", i, j, m.At(i, j), tt.At(i, j))
			}
		}
	}
	mt := m.Transpose()
	if mt.At(3, 0) != 1 || mt.At(0, 1) != 2 {
		t.Fatal("transpose entries wrong")
	}
}

func TestScaleRows(t *testing.T) {
	m := mustCOO(t, 2, 2, []uint32{0, 1}, []uint32{1, 0}, []float64{2, 3})
	m.ScaleRows([]float64{10, 100})
	if m.At(0, 1) != 20 || m.At(1, 0) != 300 {
		t.Fatalf("ScaleRows wrong: %g %g", m.At(0, 1), m.At(1, 0))
	}
}

func TestTruncLog(t *testing.T) {
	m := mustCOO(t, 1, 4,
		[]uint32{0, 0, 0, 0},
		[]uint32{0, 1, 2, 3},
		[]float64{0.5, 1, math.E, math.E * math.E})
	l := m.TruncLog()
	if l.NNZ() != 2 {
		t.Fatalf("NNZ=%d want 2 (entries <= 1 dropped)", l.NNZ())
	}
	if math.Abs(l.At(0, 2)-1) > 1e-12 {
		t.Fatalf("At(0,2)=%g want 1", l.At(0, 2))
	}
	if math.Abs(l.At(0, 3)-2) > 1e-12 {
		t.Fatalf("At(0,3)=%g want 2", l.At(0, 3))
	}
}

func TestTruncLogProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		var us, vs []uint32
		var ws []float64
		for i, w := range raw {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			us = append(us, 0)
			vs = append(vs, uint32(i))
			ws = append(ws, math.Abs(w))
		}
		m, err := FromCOO(1, 64, us, vs, ws)
		if err != nil {
			return false
		}
		l := m.TruncLog()
		// Every surviving value is positive and equals log of source.
		for p := int64(0); p < l.NNZ(); p++ {
			if l.Val[p] <= 0 {
				return false
			}
		}
		// Count matches number of source entries > 1 after duplicate merge.
		var want int64
		for p := int64(0); p < m.NNZ(); p++ {
			if m.Val[p] > 1 {
				want++
			}
		}
		return l.NNZ() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSums(t *testing.T) {
	m := mustCOO(t, 2, 2, []uint32{0, 0, 1}, []uint32{0, 1, 1}, []float64{1, 2, 3})
	sums := m.RowSums()
	if sums[0] != 3 || sums[1] != 3 {
		t.Fatalf("RowSums=%v", sums)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := mustCOO(t, 0, 0, nil, nil, nil)
	if m.NNZ() != 0 {
		t.Fatal("empty NNZ")
	}
	m2 := mustCOO(t, 3, 3, nil, nil, nil)
	x := dense.NewMatrix(3, 2)
	x.FillGaussian(1)
	y := dense.NewMatrix(3, 2)
	SpMM(y, m2, x)
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("SpMM with empty matrix should be zero")
		}
	}
}

package svd

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/rng"
	"lightne/internal/sparse"
)

// lowRankSparse builds a symmetric n×n matrix of exact rank r as a sum of
// outer products over sparse support, returned both as CSR and dense.
func lowRankSparse(n, r int, seed uint64) (*sparse.CSR, *dense.Matrix) {
	s := rng.New(seed, 0)
	d := dense.NewMatrix(n, n)
	for k := 0; k < r; k++ {
		vec := make([]float64, n)
		for i := range vec {
			if s.Float64() < 0.2 {
				vec[i] = s.NormFloat64()
			}
		}
		scale := float64(r-k) * 3
		for i := 0; i < n; i++ {
			if vec[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if vec[j] == 0 {
					continue
				}
				// Parenthesized so the entry is bitwise symmetric in (i, j),
				// like the trunc-logged sparsifier the Symmetric option targets.
				d.Set(i, j, d.At(i, j)+scale*(vec[i]*vec[j]))
			}
		}
	}
	var us, vs []uint32
	var ws []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := d.At(i, j); v != 0 {
				us = append(us, uint32(i))
				vs = append(vs, uint32(j))
				ws = append(ws, v)
			}
		}
	}
	m, err := sparse.FromCOO(n, n, us, vs, ws)
	if err != nil {
		panic(err)
	}
	return m, d
}

func TestRandomizedSVDRecoversLowRank(t *testing.T) {
	n, r := 60, 4
	a, ad := lowRankSparse(n, r, 7)
	res, err := RandomizedSVD(a, r, Options{Seed: 1, Oversample: 4, PowerIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction U·Σ·Uᵀ should match A closely (exact rank r).
	if rel := reconstructionError(res, ad); rel > 1e-6 {
		t.Fatalf("relative reconstruction error %g", rel)
	}
}

// reconstructionError is ‖U·Σ·Uᵀ − A‖_F / ‖A‖_F. The factorizers return only
// U: for a symmetric positive semidefinite A (the lowRankSparse fixtures)
// the right singular vectors equal the left ones, so U·Σ·Uᵀ is the SVD's own
// reconstruction.
func reconstructionError(res *Result, ad *dense.Matrix) float64 {
	n := ad.Rows
	us := res.U.Clone()
	for j, s := range res.Sigma {
		for i := 0; i < n; i++ {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	recon := dense.NewMatrix(n, n)
	dense.MatMul(recon, us, res.U.Transpose())
	var num, den float64
	for i := range recon.Data {
		dd := recon.Data[i] - ad.Data[i]
		num += dd * dd
		den += ad.Data[i] * ad.Data[i]
	}
	return math.Sqrt(num / den)
}

func TestRandomizedSVDSigmaDescending(t *testing.T) {
	a, _ := lowRankSparse(40, 6, 3)
	res, err := RandomizedSVD(a, 6, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(res.Sigma); j++ {
		if res.Sigma[j] > res.Sigma[j-1]+1e-9 {
			t.Fatalf("sigma not descending: %v", res.Sigma)
		}
	}
	for _, s := range res.Sigma {
		if s < 0 {
			t.Fatalf("negative sigma: %v", res.Sigma)
		}
	}
}

func TestRandomizedSVDDeterministic(t *testing.T) {
	a, _ := lowRankSparse(30, 3, 9)
	r1, err := RandomizedSVD(a, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomizedSVD(a, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.U.Data {
		if r1.U.Data[i] != r2.U.Data[i] {
			t.Fatal("same seed produced different U")
		}
	}
	for i := range r1.Sigma {
		if r1.Sigma[i] != r2.Sigma[i] {
			t.Fatal("same seed produced different sigma")
		}
	}
}

func TestRandomizedSVDErrors(t *testing.T) {
	rect := &sparse.CSR{NumRows: 2, NumCols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := RandomizedSVD(rect, 1, Options{}); err == nil {
		t.Fatal("expected error for non-square input")
	}
	sq, _ := lowRankSparse(5, 1, 1)
	if _, err := RandomizedSVD(sq, 0, Options{}); err == nil {
		t.Fatal("expected error for rank 0")
	}
	empty := &sparse.CSR{NumRows: 0, NumCols: 0, RowPtr: []int64{0}}
	if _, err := RandomizedSVD(empty, 1, Options{}); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestRankClampedToN(t *testing.T) {
	a, _ := lowRankSparse(6, 2, 4)
	res, err := RandomizedSVD(a, 100, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.U.Cols != 6 || len(res.Sigma) != 6 {
		t.Fatalf("rank not clamped: cols=%d sigma=%d", res.U.Cols, len(res.Sigma))
	}
}

func TestEmbedFromSVD(t *testing.T) {
	u := dense.FromSlice(2, 2, []float64{1, 0, 0, 1})
	res := &Result{U: u, Sigma: []float64{4, 0}}
	x := EmbedFromSVD(res)
	if x.At(0, 0) != 2 {
		t.Fatalf("X[0,0]=%g want 2 (sqrt(4)*1)", x.At(0, 0))
	}
	if x.At(1, 1) != 0 {
		t.Fatalf("X[1,1]=%g want 0 (zero singular value)", x.At(1, 1))
	}
}

func TestUOrthonormalUnderOversampling(t *testing.T) {
	a, _ := lowRankSparse(50, 5, 11)
	res, err := RandomizedSVD(a, 5, Options{Seed: 3, Oversample: 3, PowerIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := res.U.Cols
	utu := dense.NewMatrix(d, d)
	dense.MatMulATB(utu, res.U, res.U)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(utu.At(i, j)-want) > 1e-8 {
				t.Fatalf("UtU[%d,%d]=%g", i, j, utu.At(i, j))
			}
		}
	}
}

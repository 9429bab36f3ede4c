package dense

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"lightne/internal/rng"
)

func randomMatrix(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	m.FillGaussian(seed)
	return m
}

func naiveMatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return c
}

func maxDiff(a, b *Matrix) float64 {
	var d float64
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

func TestMatMulMatchesNaive(t *testing.T) {
	s := rng.New(5, 0)
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+s.Intn(40), 1+s.Intn(40), 1+s.Intn(40)
		a := randomMatrix(m, k, uint64(trial))
		b := randomMatrix(k, n, uint64(trial+100))
		c := NewMatrix(m, n)
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		if d := maxDiff(c, want); d > 1e-10 {
			t.Fatalf("trial %d: max diff %g", trial, d)
		}
	}
}

func TestMatMulATBMatchesNaive(t *testing.T) {
	s := rng.New(6, 0)
	for trial := 0; trial < 10; trial++ {
		n, p, q := 1+s.Intn(200), 1+s.Intn(20), 1+s.Intn(20)
		a := randomMatrix(n, p, uint64(trial))
		b := randomMatrix(n, q, uint64(trial+50))
		c := NewMatrix(p, q)
		MatMulATB(c, a, b)
		want := naiveMatMul(a.Transpose(), b)
		if d := maxDiff(c, want); d > 1e-9 {
			t.Fatalf("trial %d: max diff %g", trial, d)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
	att := at.Transpose()
	if maxDiff(a, att) != 0 {
		t.Fatal("double transpose changed matrix")
	}
}

func TestQRProperties(t *testing.T) {
	for _, dims := range [][2]int{{5, 3}, {50, 10}, {128, 32}, {4, 4}, {1, 1}} {
		n, d := dims[0], dims[1]
		a := randomMatrix(n, d, uint64(n*31+d))
		q, r := QR(a)

		// QᵀQ = I
		qtq := NewMatrix(d, d)
		MatMulATB(qtq, q, q)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-10 {
					t.Fatalf("%dx%d: QtQ[%d,%d]=%g", n, d, i, j, qtq.At(i, j))
				}
			}
		}
		// R upper triangular
		for i := 0; i < d; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
		// Q·R = A
		qr := NewMatrix(n, d)
		MatMul(qr, q, r)
		if diff := maxDiff(qr, a); diff > 1e-10*math.Max(1, a.MaxAbs()) {
			t.Fatalf("%dx%d: QR reconstruction diff %g", n, d, diff)
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: QR must still produce orthonormal Q.
	n, d := 20, 3
	a := NewMatrix(n, d)
	s := rng.New(3, 0)
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		a.Set(i, 0, v)
		a.Set(i, 1, v) // duplicate column
		a.Set(i, 2, s.NormFloat64())
	}
	q, r := QR(a)
	qtq := NewMatrix(d, d)
	MatMulATB(qtq, q, q)
	for i := 0; i < d; i++ {
		if math.Abs(qtq.At(i, i)-1) > 1e-10 {
			t.Fatalf("Q column %d not unit norm", i)
		}
	}
	qr := NewMatrix(n, d)
	MatMul(qr, q, r)
	if diff := maxDiff(qr, a); diff > 1e-10 {
		t.Fatalf("rank-deficient QR reconstruction diff %g", diff)
	}
}

func TestSVDReconstruction(t *testing.T) {
	for _, dims := range [][2]int{{6, 4}, {40, 12}, {64, 64}, {3, 1}} {
		n, d := dims[0], dims[1]
		a := randomMatrix(n, d, uint64(n*17+d))
		u, sigma, v := SVD(a)

		// Singular values sorted descending and non-negative.
		for j := 0; j < d; j++ {
			if sigma[j] < 0 {
				t.Fatalf("negative singular value %g", sigma[j])
			}
			if j > 0 && sigma[j] > sigma[j-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", sigma)
			}
		}
		// U orthonormal columns, V orthogonal.
		utu := NewMatrix(d, d)
		MatMulATB(utu, u, u)
		vtv := NewMatrix(d, d)
		MatMulATB(vtv, v, v)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(utu.At(i, j)-want) > 1e-9 {
					t.Fatalf("%dx%d UtU[%d,%d]=%g", n, d, i, j, utu.At(i, j))
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					t.Fatalf("%dx%d VtV[%d,%d]=%g", n, d, i, j, vtv.At(i, j))
				}
			}
		}
		// U·diag(σ)·Vᵀ = A
		us := u.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				us.Set(i, j, us.At(i, j)*sigma[j])
			}
		}
		recon := NewMatrix(n, d)
		MatMul(recon, us, v.Transpose())
		if diff := maxDiff(recon, a); diff > 1e-9*math.Max(1, a.MaxAbs()) {
			t.Fatalf("%dx%d: SVD reconstruction diff %g", n, d, diff)
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2, 1) has exactly those singular values.
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	a.Set(2, 2, 1)
	_, sigma, _ := SVD(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(sigma[i]-want[i]) > 1e-12 {
			t.Fatalf("sigma=%v want %v", sigma, want)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: exactly one nonzero singular value.
	n, d := 10, 4
	a := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	_, sigma, _ := SVD(a)
	if sigma[0] <= 0 {
		t.Fatal("expected positive leading singular value")
	}
	for j := 1; j < d; j++ {
		if sigma[j] > 1e-8*sigma[0] {
			t.Fatalf("rank-1 matrix has sigma[%d]=%g", j, sigma[j])
		}
	}
}

func TestFillGaussianDeterministic(t *testing.T) {
	a := NewMatrix(10, 10)
	b := NewMatrix(10, 10)
	a.FillGaussian(42)
	b.FillGaussian(42)
	if maxDiff(a, b) != 0 {
		t.Fatal("same seed produced different matrices")
	}
	b.FillGaussian(43)
	if maxDiff(a, b) == 0 {
		t.Fatal("different seeds produced identical matrices")
	}
}

// TestFillGaussianGolden pins the bits of FillGaussian (rng.FillNorm per
// row): the rSVD's test matrix, hence every embedding, depends on them. The
// sha256 is over a 1024×64 fill at seed 7, float64s little-endian, row-major.
func TestFillGaussianGolden(t *testing.T) {
	a := NewMatrix(1024, 64)
	a.FillGaussian(7)
	h := sha256.New()
	for _, v := range a.Data {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	const golden = "acae942379744849b07d26a6015fce5738ea36d96619b5b34be553cf6f14e3e4"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("FillGaussian sha256 %s, golden %s", got, golden)
	}
}

func TestScaleAndMaxAbs(t *testing.T) {
	a := FromSlice(2, 2, []float64{3, 0, 0, -4})
	a.Scale(2)
	for i, want := range []float64{6, 0, 0, -8} {
		if a.Data[i] != want {
			t.Fatalf("after scale Data[%d]=%g want %g", i, a.Data[i], want)
		}
	}
	if a.MaxAbs() != 8 {
		t.Fatalf("MaxAbs=%g want 8", a.MaxAbs())
	}
}

// TestMaxAbsMatchesSequential: the parallel block-reduce must return exactly
// the sequential maximum (max is order-independent), for shapes spanning the
// sequential fallback and the multi-block path, at several worker counts.
func TestMaxAbsMatchesSequential(t *testing.T) {
	shapes := [][2]int{{0, 0}, {1, 1}, {3, 7}, {200, 40}, {5000, 17}}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for si, sh := range shapes {
			m := randomMatrix(sh[0], sh[1], uint64(100+si))
			var want float64
			for _, v := range m.Data {
				if a := math.Abs(v); a > want {
					want = a
				}
			}
			if got := m.MaxAbs(); got != want {
				t.Errorf("procs=%d %dx%d: MaxAbs=%g want %g", procs, sh[0], sh[1], got, want)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) within floating tolerance, for random small shapes.
	f := func(seed uint16) bool {
		s := rng.New(uint64(seed), 0)
		m, k, l, n := 1+s.Intn(8), 1+s.Intn(8), 1+s.Intn(8), 1+s.Intn(8)
		a := randomMatrix(m, k, uint64(seed))
		b := randomMatrix(k, l, uint64(seed)+1)
		c := randomMatrix(l, n, uint64(seed)+2)
		ab := NewMatrix(m, l)
		MatMul(ab, a, b)
		abc1 := NewMatrix(m, n)
		MatMul(abc1, ab, c)
		bc := NewMatrix(k, n)
		MatMul(bc, b, c)
		abc2 := NewMatrix(m, n)
		MatMul(abc2, a, bc)
		return maxDiff(abc1, abc2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulATBDetMatchesNaive checks the fixed-geometry (deterministic)
// fold of MatMulATB against the naive product on row counts up to 300, so
// most cases have more rows than par.DetBounds has blocks and fold blocks of
// several rows.
func TestMatMulATBDetMatchesNaive(t *testing.T) {
	s := rng.New(17, 0)
	for trial := 0; trial < 10; trial++ {
		n, p, q := 1+s.Intn(300), 1+s.Intn(20), 1+s.Intn(20)
		a := randomMatrix(n, p, uint64(trial))
		b := randomMatrix(n, q, uint64(trial+500))
		c := NewMatrix(p, q)
		MatMulATB(c, a, b)
		want := naiveMatMul(a.Transpose(), b)
		if d := maxDiff(c, want); d > 1e-9 {
			t.Fatalf("trial %d (%dx%d x %dx%d): max diff %g", trial, n, p, n, q, d)
		}
	}
}

// TestMatMulATBBitIdenticalAcrossWorkers pins the determinism contract:
// the product is bitwise identical for every GOMAXPROCS, including sizes
// that straddle the fixed block geometry. See DESIGN.md "Numerics".
func TestMatMulATBBitIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 63, 64, 65, 1000, 4097} {
		a := randomMatrix(n, 7, uint64(n))
		b := randomMatrix(n, 5, uint64(n)+99)
		var ref *Matrix
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			c := NewMatrix(7, 5)
			MatMulATB(c, a, b)
			if ref == nil {
				ref = c
				continue
			}
			for i := range c.Data {
				if c.Data[i] != ref.Data[i] {
					t.Fatalf("n=%d procs=%d: element %d differs: %v vs %v",
						n, procs, i, c.Data[i], ref.Data[i])
				}
			}
		}
	}
}

func TestQRInPlaceMatchesQR(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {10, 3}, {200, 17}} {
		a := randomMatrix(shape[0], shape[1], uint64(shape[0]))
		q1, r1 := QR(a)
		q2, r2 := QRInPlace(a.Clone())
		if d := maxDiff(q1, q2); d != 0 {
			t.Fatalf("%v: Q differs by %g", shape, d)
		}
		if d := maxDiff(r1, r2); d != 0 {
			t.Fatalf("%v: R differs by %g", shape, d)
		}
	}
}

func TestSolveUpperRoundTrip(t *testing.T) {
	s := rng.New(23, 0)
	for trial := 0; trial < 10; trial++ {
		k, q := 1+s.Intn(30), 1+s.Intn(10)
		a := randomMatrix(k, k, uint64(trial+1))
		// Upper triangular, the diagonal pushed away from singularity.
		for i := 0; i < k; i++ {
			for j := 0; j < i; j++ {
				a.Set(i, j, 0)
			}
			a.Set(i, i, a.At(i, i)+float64(k))
		}
		want := randomMatrix(k, q, uint64(trial+900))
		b := naiveMatMul(a, want)
		got, err := SolveUpper(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxDiff(got, want); d > 1e-8 {
			t.Fatalf("trial %d (k=%d q=%d): max diff %g", trial, k, q, d)
		}
	}
}

func TestSolveUpperSingular(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 0, 0})
	b := NewMatrix(2, 1)
	if _, err := SolveUpper(a, b); err == nil {
		t.Fatal("expected an error for a singular system")
	}
}

// TestSVDBitIdenticalToOracle: the column-major Jacobi SVD returns the At/Set
// kernel's U, σ and V bit for bit, on every kernel form, for shapes across
// the 4-element rotation blocks, a rank-deficient input, a zero column and
// signed zeros. See DESIGN.md "Numerics".
func TestSVDBitIdenticalToOracle(t *testing.T) {
	var cases []*Matrix
	for _, s := range [][2]int{{1, 1}, {3, 1}, {6, 4}, {9, 7}, {40, 12}, {64, 64}, {65, 33}} {
		cases = append(cases, randomMatrix(s[0], s[1], uint64(s[0]*7+s[1])))
	}
	rank1 := NewMatrix(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			rank1.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	zeros := randomMatrix(21, 6, 3)
	for i := 0; i < zeros.Rows; i++ {
		zeros.Set(i, 2, 0)
		zeros.Set(i, 4, math.Copysign(0, -1))
	}
	cases = append(cases, rank1, zeros)
	for _, a := range cases {
		wantU, wantS, wantV := svdOracle(a)
		ForEachKernel(func(kernels string) {
			u, s, v := SVD(a)
			what := fmt.Sprintf("%dx%d %s", a.Rows, a.Cols, kernels)
			compareBits(t, what+" U", u.Data, wantU.Data)
			compareBits(t, what+" sigma", s, wantS)
			compareBits(t, what+" V", v.Data, wantV.Data)
		})
	}
}

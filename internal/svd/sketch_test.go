package svd

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/sparse"
)

// sketchCSR runs the full single-pass pipeline over an in-memory CSR.
func sketchCSR(t *testing.T, a *sparse.CSR, d int, opt SketchOptions, chunk int64) *Result {
	t.Helper()
	sk, err := NewSketch(a.NumRows, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	sk.AbsorbCSR(a.RowPtr, a.ColIdx, a.Val, chunk)
	res, err := sk.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// relSpectralErr compares recovered singular values against the exact dense
// SVD's top values: max_j |σ̂_j - σ_j| / σ_1.
func relSpectralErr(got []float64, ad *dense.Matrix) float64 {
	_, exact, _ := dense.SVD(ad)
	var worst float64
	for j := range got {
		if v := math.Abs(got[j]-exact[j]) / exact[0]; v > worst {
			worst = v
		}
	}
	return worst
}

// TestSketchQualityVsExact is the quality regression test: on an exact
// low-rank symmetric fixture both sketch kinds must recover the spectrum to
// high relative accuracy (the range finder captures the whole column space).
func TestSketchQualityVsExact(t *testing.T) {
	n, r := 80, 5
	a, ad := lowRankSparse(n, r, 7)
	for _, kind := range []SketchKind{SketchSparseSign, SketchGaussian} {
		res := sketchCSR(t, a, r, SketchOptions{Seed: 3, Kind: kind, Oversample: 12}, 97)
		if err := relSpectralErr(res.Sigma, ad); err > 1e-8 {
			t.Errorf("%v: relative spectral error %g on an exact rank-%d matrix", kind, err, r)
		}
		// Reconstruction U·Σ·Uᵀ ≈ A.
		if rel := reconstructionError(res, ad); rel > 1e-6 {
			t.Errorf("%v: relative reconstruction error %g", kind, rel)
		}
	}
}

// TestSketchQualityFullRankSpectrum checks the realistic regime — a noisy
// matrix with a decaying spectrum, no exact low rank — where the single-pass
// estimate is approximate: the leading singular values must still come out
// within a few percent for both kinds.
func TestSketchQualityFullRankSpectrum(t *testing.T) {
	n := 120
	a, ad := lowRankSparse(n, 40, 21)
	d := 16
	for _, kind := range []SketchKind{SketchSparseSign, SketchGaussian} {
		res := sketchCSR(t, a, d, SketchOptions{Seed: 5, Kind: kind, Oversample: 40}, 311)
		if err := relSpectralErr(res.Sigma[:8], ad); err > 0.05 {
			t.Errorf("%v: leading singular values off by %g relative", kind, err)
		}
	}
}

func TestSketchChunkingInvariance(t *testing.T) {
	a, _ := lowRankSparse(70, 4, 13)
	opt := SketchOptions{Seed: 9}
	var ref *Result
	for _, chunk := range []int64{1, 7, 64, 1 << 20} {
		res := sketchCSR(t, a, 4, opt, chunk)
		if ref == nil {
			ref = res
			continue
		}
		for i := range res.U.Data {
			if res.U.Data[i] != ref.U.Data[i] {
				t.Fatalf("chunk=%d: U differs from reference at %d", chunk, i)
			}
		}
		for i := range res.Sigma {
			if res.Sigma[i] != ref.Sigma[i] {
				t.Fatalf("chunk=%d: sigma differs", chunk)
			}
		}
	}
}

// TestSketchBitIdenticalAcrossProcs pins the determinism contract of the
// sketch alone: same seed, any GOMAXPROCS and any chunking → bitwise equal
// factors. (The end-to-end GOMAXPROCS × Shards property lives in core.)
// See DESIGN.md "Numerics".
func TestSketchBitIdenticalAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a, _ := lowRankSparse(90, 6, 17)
	for _, kind := range []SketchKind{SketchSparseSign, SketchGaussian} {
		var ref *Result
		for _, procs := range []int{1, 4} {
			for _, chunk := range []int64{33, 1 << 20} {
				runtime.GOMAXPROCS(procs)
				res := sketchCSR(t, a, 6, SketchOptions{Seed: 11, Kind: kind}, chunk)
				if ref == nil {
					ref = res
					continue
				}
				for i := range res.U.Data {
					if res.U.Data[i] != ref.U.Data[i] {
						t.Fatalf("%v procs=%d chunk=%d: U not bit-identical", kind, procs, chunk)
					}
				}
				for i := range res.Sigma {
					if res.Sigma[i] != ref.Sigma[i] {
						t.Fatalf("%v procs=%d chunk=%d: sigma not bit-identical", kind, procs, chunk)
					}
				}
			}
		}
	}
}

// TestSketchConcurrentAbsorb exercises the concurrency contract under the
// race detector (make race includes this package): disjoint chunks absorbed
// from competing goroutines must land bit-identically to sequential
// absorption.
func TestSketchConcurrentAbsorb(t *testing.T) {
	a, _ := lowRankSparse(100, 5, 23)
	opt := SketchOptions{Seed: 13}
	want := sketchCSR(t, a, 5, opt, 1<<20)

	sk, err := NewSketch(a.NumRows, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Split rows into per-goroutine chunks.
	const parts = 8
	var wg sync.WaitGroup
	per := (a.NumRows + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo := p * per
		hi := lo + per
		if hi > a.NumRows {
			hi = a.NumRows
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := make([]int64, hi-lo+1)
			base := a.RowPtr[lo]
			for i := range local {
				local[i] = a.RowPtr[lo+i] - base
			}
			sk.Absorb(RowChunk{
				RowLo:  lo,
				RowPtr: local,
				Cols:   a.ColIdx[base:a.RowPtr[hi]],
				Vals:   a.Val[base:a.RowPtr[hi]],
			})
		}(lo, hi)
	}
	wg.Wait()
	if sk.AbsorbedNNZ() != a.NNZ() {
		t.Fatalf("absorbed %d entries, matrix has %d", sk.AbsorbedNNZ(), a.NNZ())
	}
	got, err := sk.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.U.Data {
		if got.U.Data[i] != want.U.Data[i] {
			t.Fatalf("concurrent absorb changed U at %d", i)
		}
	}
}

func TestSketchErrorsAndPanics(t *testing.T) {
	if _, err := NewSketch(0, 4, SketchOptions{}); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewSketch(10, 0, SketchOptions{}); err == nil {
		t.Fatal("expected error for d=0")
	}
	if _, err := NewSketch(10, 2, SketchOptions{Kind: SketchKind(99)}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	// Factorizing an empty stream: Y = 0 is rank-deficient but QR completes
	// the basis; the solve on C = QᵀΩ must still succeed or error cleanly,
	// never panic.
	sk, err := NewSketch(12, 2, SketchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sk.Factorize(); err == nil {
		for _, s := range res.Sigma {
			if s != 0 {
				t.Fatalf("empty stream produced nonzero sigma %v", res.Sigma)
			}
		}
	}

	sk2, _ := NewSketch(8, 2, SketchOptions{Seed: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for out-of-range chunk")
			}
		}()
		sk2.Absorb(RowChunk{RowLo: 7, RowPtr: []int64{0, 0, 0}})
	}()
}

func TestSketchKindString(t *testing.T) {
	if SketchSparseSign.String() != "sign" || SketchGaussian.String() != "gaussian" {
		t.Fatalf("kind names: %v %v", SketchSparseSign, SketchGaussian)
	}
}

func TestDefaultSketchOversample(t *testing.T) {
	if got := DefaultSketchOversample(128); got != 32 {
		t.Fatalf("d=128: %d", got)
	}
	if got := DefaultSketchOversample(8); got != 8 {
		t.Fatalf("d=8: %d", got)
	}
}

// TestRandomizedSVDSymmetricEquivalence pins the Symmetric satellite: on an
// exactly symmetric CSR the skip-transpose path is bit-identical to the
// transposing path (a sorted symmetric CSR transposes to itself bitwise).
func TestRandomizedSVDSymmetricEquivalence(t *testing.T) {
	a, _ := lowRankSparse(60, 4, 29)
	plain, err := RandomizedSVD(a, 4, Options{Seed: 7, Oversample: 2, PowerIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := RandomizedSVD(a, 4, Options{Seed: 7, Oversample: 2, PowerIters: 1, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.U.Data {
		if plain.U.Data[i] != sym.U.Data[i] {
			t.Fatalf("U differs at %d", i)
		}
	}
	for i := range plain.Sigma {
		if plain.Sigma[i] != sym.Sigma[i] {
			t.Fatalf("sigma differs at %d", i)
		}
	}
}

// TestTruncateColsAndEmbedDifferential pins the parallel rewrites against
// the original sequential element loops.
func TestTruncateColsAndEmbedDifferential(t *testing.T) {
	m := dense.NewMatrix(137, 9)
	m.FillGaussian(31)
	d := 5
	got := truncateCols(m, d)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < d; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("truncateCols differs at (%d,%d)", i, j)
			}
		}
	}
	if same := truncateCols(m, m.Cols); same != m {
		t.Fatal("truncateCols should return the input when d == Cols")
	}

	sigma := []float64{4, 2.5, 0.9, 0, 1e-12}
	res := &Result{U: got, Sigma: sigma}
	x := EmbedFromSVD(res)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			root := 0.0
			if sigma[j] > 0 {
				root = math.Sqrt(sigma[j])
			}
			if want := got.At(i, j) * root; x.At(i, j) != want {
				t.Fatalf("EmbedFromSVD differs at (%d,%d): %v vs %v", i, j, x.At(i, j), want)
			}
		}
	}
}

package dense

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lightne/internal/rng"
)

// sameBitsOrBothNaN is Float64bits equality with NaN folded into one class:
// Go does not define NaN payloads, and which of two NaN operands an amd64
// add keeps is the register allocator's choice, in the old loop as in the
// new one.
func sameBitsOrBothNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMatMulBitIdenticalToOracle: MatMul on the shared 4-way row-accumulate
// kernel must return the bits of the ikj loop it replaced. A carries exact
// zeros of both signs in a column whose row of B is all ±Inf/NaN: the skip
// must still skip them (0·Inf would poison the row), and everything else —
// unroll remainders from the gather, special values in both operands — must
// add up in the same order. See DESIGN.md "Numerics".
func TestMatMulBitIdenticalToOracle(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range [][3]int{{1, 1, 1}, {7, 5, 3}, {4096, 64, 64}, {300, 74, 74}} {
		n, k, m := s[0], s[1], s[2]
		src := rng.New(uint64(n), 0)
		for _, salted := range []bool{false, true} {
			a, b := randomMatrix(n, k, 1), randomMatrix(k, m, 2)
			// Column 0 of A is ±0 and row 0 of B non-finite: skipped or poisoned.
			for i := 0; i < n; i++ {
				a.Data[i*k] = specials[i%2]
			}
			for j := 0; j < m; j++ {
				b.Data[j] = specials[2+j%3]
			}
			// Scattered zeros move the gather's group boundaries row by row.
			for i := range a.Data {
				if src.Intn(6) == 0 {
					a.Data[i] = specials[src.Intn(2)]
				}
			}
			if salted {
				for i := range a.Data {
					if src.Intn(9) == 0 {
						a.Data[i] = specials[src.Intn(len(specials))]
					}
				}
				for i := range b.Data[m:] {
					if src.Intn(9) == 0 {
						b.Data[m+i] = specials[src.Intn(len(specials))]
					}
				}
			}
			want := NewMatrix(n, m)
			matMulOracle(want, a, b)
			if !salted {
				for _, v := range want.Data {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%dx%dx%d: oracle did not skip the zero column", n, k, m)
					}
				}
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := NewMatrix(n, m)
				for i := range got.Data {
					got.Data[i] = math.NaN() // MatMul overwrites, never accumulates
				}
				MatMul(got, a, b)
				for i, w := range want.Data {
					if !sameBitsOrBothNaN(got.Data[i], w) {
						t.Fatalf("%dx%dx%d salted=%v procs=%d: element (%d,%d) = %x (%g), oracle %x (%g)",
							n, k, m, salted, procs, i/m, i%m, math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(w), w)
					}
				}
			}
		}
	}
}

// TestMatMulATBBitIdenticalToOracle: the fixed-geometry Aᵀ·B on the
// row-accumulate kernel (a column of A gathered, then one accumulate per row
// of the result) must return the bits of the row-update loop it replaced, on
// every kernel form and at every GOMAXPROCS. A carries exact zeros of both
// signs opposite non-finite rows of B (the skip must still skip) and special
// values everywhere else. See DESIGN.md "Numerics".
func TestMatMulATBBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	src := rng.New(53, 0)
	for _, s := range [][3]int{{1, 1, 1}, {63, 7, 5}, {300, 74, 33}, {4097, 64, 64}} {
		n, p, q := s[0], s[1], s[2]
		a, b := randomMatrix(n, p, uint64(n)), randomMatrix(n, q, uint64(n)+1)
		for i := range a.Data {
			switch src.Intn(8) {
			case 0:
				a.Data[i] = math.Copysign(0, float64(src.Intn(2))-0.5)
			case 1:
				a.Data[i] = specialValues[src.Intn(len(specialValues))]
			}
		}
		for i := 0; i < n; i += 5 {
			a.Data[i*p] = 0
			b.Data[i*q] = math.Inf(1)
		}
		for i := range b.Data {
			if src.Intn(16) == 0 {
				b.Data[i] = specialValues[src.Intn(len(specialValues))]
			}
		}
		want := NewMatrix(p, q)
		matMulATBOracle(want, a, b)
		ForEachKernel(func(kernels string) {
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := NewMatrix(p, q)
				MatMulATB(got, a, b)
				compareBits(t, fmt.Sprintf("%dx%dx%d %s procs=%d", n, p, q, kernels, procs), got.Data, want.Data)
			}
		})
	}
}

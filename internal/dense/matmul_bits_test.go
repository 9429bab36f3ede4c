package dense

import (
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
// add up in the same order.
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

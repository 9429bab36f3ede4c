package dense

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// qrCase is one input of the differential grid.
type qrCase struct {
	name string
	a    *Matrix
}

// qrDifferentialCases is the shape × conditioning grid the production kernel
// is compared against qrOracle on: the harness shapes, the tile and grain
// boundaries (64 vs 65 rows, 33 columns = 8 four-column tiles + 1), and the
// inputs that take the kernel's tau == 0 and signed-zero branches.
func qrDifferentialCases() []qrCase {
	var cases []qrCase
	for _, s := range [][2]int{{1, 1}, {64, 64}, {65, 64}, {1000, 33}, {4096, 64}, {8192, 32}, {777, 1}} {
		cases = append(cases, qrCase{fmt.Sprintf("gaussian-%dx%d", s[0], s[1]), randomMatrix(s[0], s[1], uint64(s[0]*131+s[1]))})
	}

	dup := randomMatrix(300, 9, 7)
	for i := 0; i < dup.Rows; i++ {
		dup.Set(i, 4, dup.At(i, 1))
		dup.Set(i, 8, dup.At(i, 1))
	}
	cases = append(cases, qrCase{"duplicated-columns", dup})

	zc := randomMatrix(300, 9, 8)
	for i := 0; i < zc.Rows; i++ {
		zc.Set(i, 0, 0)
		zc.Set(i, 5, 0)
	}
	cases = append(cases, qrCase{"zero-columns", zc})

	cases = append(cases, qrCase{"all-zero", NewMatrix(200, 12)})
	cases = append(cases, qrCase{"all-zero-square", NewMatrix(5, 5)})

	// Mostly-zero entries of both signs: exercises 0·x, 0 - 0·x and the sign
	// of zeros in the identity columns Q is grown from.
	sp := randomMatrix(500, 16, 9)
	for i := range sp.Data {
		switch i % 7 {
		case 0, 1, 2, 3:
			sp.Data[i] = 0
		case 4:
			sp.Data[i] = math.Copysign(0, -1)
		}
	}
	cases = append(cases, qrCase{"sparse-signed-zeros", sp})

	// Graded spectrum, κ = 1e12: orthonormal × diag(1 … 1e-12) × mixing.
	n, d := 600, 24
	u := Orthonormalize(randomMatrix(n, d, 10))
	for j := 0; j < d; j++ {
		s := math.Pow(10, -12*float64(j)/float64(d-1))
		for i := 0; i < n; i++ {
			u.Set(i, j, u.At(i, j)*s)
		}
	}
	graded := NewMatrix(n, d)
	MatMul(graded, u, Orthonormalize(randomMatrix(d, d, 11)))
	cases = append(cases, qrCase{"graded-kappa-1e12", graded})

	// Columns so small their squared norm underflows: vnormSq == 0 branch.
	tiny := randomMatrix(50, 4, 12)
	for i := 0; i < tiny.Rows; i++ {
		tiny.Set(i, 2, tiny.At(i, 2)*1e-170)
	}
	cases = append(cases, qrCase{"underflowing-column", tiny})
	return cases
}

func firstBitDiff(got, want *Matrix) (int, bool) {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return -1, true
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i, true
		}
	}
	return 0, false
}

// TestQRBitIdenticalToOracle is the contract the column-major kernel was
// built under: Q and R equal the pre-rewrite serial kernel's bit for bit,
// for every input class and every GOMAXPROCS, through all three entry points.
func TestQRBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range qrDifferentialCases() {
		wantQ, wantR := qrOracle(tc.a.Clone())
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			input := tc.a.Clone()
			q, r := QR(input)
			if i, bad := firstBitDiff(input, tc.a); bad {
				t.Fatalf("%s procs=%d: QR modified its input at %d", tc.name, procs, i)
			}
			qi, ri := QRInPlace(tc.a.Clone())
			for _, got := range []struct {
				what      string
				got, want *Matrix
			}{
				{"QR Q", q, wantQ}, {"QR R", r, wantR},
				{"QRInPlace Q", qi, wantQ}, {"QRInPlace R", ri, wantR},
				{"Orthonormalize", Orthonormalize(tc.a), wantQ},
			} {
				if i, bad := firstBitDiff(got.got, got.want); bad {
					t.Fatalf("%s procs=%d: %s differs from oracle at element %d: %x vs %x",
						tc.name, procs, got.what, i,
						math.Float64bits(got.got.Data[i]), math.Float64bits(got.want.Data[i]))
				}
			}
		}
	}
}

// TestQRInPlaceReusesInput pins the memory contract the planner's dense term
// relies on: QRInPlace hands the input's storage back as Q.
func TestQRInPlaceReusesInput(t *testing.T) {
	a := randomMatrix(100, 8, 1)
	q, _ := QRInPlace(a)
	if q != a || &q.Data[0] != &a.Data[0] {
		t.Fatal("QRInPlace did not return Q in its input's storage")
	}
}

// TestQRAllocsIndependentOfWidth pins "no per-reflector allocation": a call
// allocates the working buffer, tau, R, Q and one closure — the same count
// for 4 columns and for 64. (AllocsPerRun measures at GOMAXPROCS 1; on more
// cores par's fork-join adds its own few small objects per fan-out.)
func TestQRAllocsIndependentOfWidth(t *testing.T) {
	allocs := func(d int) float64 {
		a := randomMatrix(256, d, uint64(d))
		return testing.AllocsPerRun(5, func() { QR(a) })
	}
	narrow, wide := allocs(4), allocs(64)
	if narrow != wide {
		t.Fatalf("allocations grow with width: %v at d=4, %v at d=64", narrow, wide)
	}
	if wide > 16 {
		t.Fatalf("QR allocates %v objects per call, want a small constant", wide)
	}
}

func TestTransposeIntoMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, s := range [][2]int{{1, 1}, {31, 33}, {33, 31}, {1000, 7}, {7, 1000}, {300, 300}} {
		rows, cols := s[0], s[1]
		a := randomMatrix(rows, cols, 5)
		got := make([]float64, rows*cols)
		transposeInto(got, a.Data, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got[j*rows+i] != a.At(i, j) {
					t.Fatalf("%dx%d: transposed (%d,%d) = %g, want %g", rows, cols, j, i, got[j*rows+i], a.At(i, j))
				}
			}
		}
	}
}

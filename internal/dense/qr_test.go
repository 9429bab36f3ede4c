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
// is compared against qrOracle on: the harness shapes, the panel, group and
// grain boundaries (square d = 1…5, 7…9, 15…17 and 31…33, 64 vs 65 rows and
// columns, 33 columns = 8 four-column panels + a one-column panel), and the
// inputs that take the kernel's tau == 0 and signed-zero branches.
func qrDifferentialCases() []qrCase {
	var cases []qrCase
	shapes := [][2]int{{65, 64}, {1000, 33}, {4096, 64}, {8192, 32}, {8192, 40}, {777, 1}}
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65} {
		shapes = append(shapes, [2]int{d, d})
	}
	for _, s := range shapes {
		cases = append(cases, qrCase{fmt.Sprintf("gaussian-%dx%d", s[0], s[1]), randomMatrix(s[0], s[1], uint64(s[0]*131+s[1]))})
	}
	sq := randomMatrix(33, 33, 6)
	for i := 0; i < sq.Rows; i++ {
		sq.Set(i, 5, 0)
	}
	cases = append(cases, qrCase{"square-zero-column", sq})

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

// TestQRBitIdenticalToOracle is the contract the panel kernel was built
// under: Q and R equal the pre-rewrite serial kernel's bit for bit, for every
// input class, every GOMAXPROCS and every kernel form (Go, AVX, AVX-512), through
// all three entry points. See DESIGN.md "Numerics".
func TestQRBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ForEachKernel(func(kernels string) {
		testQRBitIdenticalToOracle(t, kernels)
	})
}

func testQRBitIdenticalToOracle(t *testing.T, kernels string) {
	for _, tc := range qrDifferentialCases() {
		wantQ, wantR := qrOracle(tc.a.Clone())
		for _, procs := range []int{1, 2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			input := tc.a.Clone()
			q, r := QR(input)
			if i, bad := firstBitDiff(input, tc.a); bad {
				t.Fatalf("%s %s procs=%d: QR modified its input at %d", kernels, tc.name, procs, i)
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
					t.Fatalf("%s %s procs=%d: %s differs from oracle at element %d: %x vs %x",
						kernels, tc.name, procs, got.what, i,
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

// TestQRPipelineBitIdenticalToOracle holds the pipelined kernel — R shared by
// every worker while Q groups accumulate in the gaps — to qrOracle
// under schedules that differ from run to run: GOMAXPROCS up to four times the
// cores, square shapes around the panel boundaries, tall ones around the
// group boundaries, the harness shapes, identity reflectors (a zero column) first, mid-way and last, and
// graded columns, each factored twice per GOMAXPROCS on every kernel form.
// See DESIGN.md "Numerics".
func TestQRPipelineBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var cases []qrCase
	shapes := [][2]int{{4096, 64}, {8192, 40}}
	for _, d := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65} {
		shapes = append(shapes, [2]int{d, d})
	}
	// Widths around the Q group (8 columns), tall enough to run in parallel.
	for _, d := range []int{8, 9, 12, 16, 17} {
		shapes = append(shapes, [2]int{4096, d})
	}
	for _, s := range shapes {
		n, d := s[0], s[1]
		name := fmt.Sprintf("%dx%d", n, d)
		cases = append(cases, qrCase{name, randomMatrix(n, d, uint64(n+d))})
		zeros := []int{0, d / 2, d - 1}
		if n*d > 1<<17 {
			zeros = zeros[1:2] // the harness shapes: mid-way only, for time
		}
		for _, z := range zeros {
			a := randomMatrix(n, d, uint64(n*d+z))
			for i := 0; i < n; i++ {
				a.Set(i, z, 0)
			}
			cases = append(cases, qrCase{fmt.Sprintf("%s-zero-column-%d", name, z), a})
		}
		graded := randomMatrix(n, d, uint64(n*d+1))
		for j := 0; j < d; j++ {
			s := math.Pow(10, -12*float64(j)/float64(max(d-1, 1)))
			for i := 0; i < n; i++ {
				graded.Set(i, j, graded.At(i, j)*s)
			}
		}
		cases = append(cases, qrCase{name + "-graded", graded})
	}
	want := make([][2]*Matrix, len(cases))
	for c, tc := range cases {
		want[c][0], want[c][1] = qrOracle(tc.a.Clone())
	}
	ForEachKernel(func(kernels string) {
		for c, tc := range cases {
			wantQ, wantR := want[c][0], want[c][1]
			for _, procs := range []int{1, 2, 3, 4, 8} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 2; rep++ {
					q, r := QRInPlace(tc.a.Clone())
					for _, got := range []struct {
						what      string
						got, want *Matrix
					}{{"Q", q, wantQ}, {"R", r, wantR}} {
						if i, bad := firstBitDiff(got.got, got.want); bad {
							t.Fatalf("%s %s procs=%d rep=%d: %s differs from oracle at element %d", kernels, tc.name, procs, rep, got.what, i)
						}
					}
				}
			}
		}
	})
}

// TestQRAllocsIndependentOfWidth pins "no per-reflector allocation and one
// fork-join per call": a call allocates the working buffers, R, Q and its
// closures — the same count for 4 columns and for 64. AllocsPerRun measures
// at GOMAXPROCS 1, so the count at 2 (one worker goroutine forked) comes from
// runtime.ReadMemStats, the fewest over a few trials so that the runtime's
// own background allocations drop out.
func TestQRAllocsIndependentOfWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
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

	runtime.GOMAXPROCS(2)
	mallocs := func(d int) uint64 {
		a := randomMatrix(1<<14, d, uint64(d))
		QR(a)
		fewest := uint64(math.MaxUint64)
		for trial := 0; trial < 5; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			QR(a)
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	narrow2, wide2 := mallocs(4), mallocs(64)
	if narrow2 != wide2 || wide2 > 16 {
		t.Fatalf("at GOMAXPROCS 2, QR allocates %d objects at d=4 and %d at d=64, want the same small constant", narrow2, wide2)
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

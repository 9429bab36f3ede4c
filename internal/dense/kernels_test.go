package dense

import (
	"fmt"
	"math"
	"testing"

	"lightne/internal/rng"
)

// needKernel skips a test of form k where this process cannot run it.
func needKernel(t *testing.T, k kernelLevel) {
	if kernel < k {
		t.Skipf("CPU or OS without %s: this process runs the %s loops", k, kernel)
	}
}

// runEachKernel runs f as one subtest per form, go to avx512, with that form
// selected; a form this process cannot run is skipped with a message.
func runEachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(saved kernelLevel) { kernel = saved }(kernel)
	best := kernel
	for k := kernelGo; k <= kernelAVX512; k++ {
		t.Run(k.String(), func(t *testing.T) {
			if best < k {
				t.Skipf("CPU or OS without %s: this process runs the %s loops", k, best)
			}
			kernel = k
			f(t)
		})
	}
}

// specialValues are the operands a lane must treat exactly as the scalar
// loop does: signed zeros, infinities, NaN, subnormals (as inputs and as
// products), and magnitudes whose products overflow or underflow.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-160, -3e-170,
	1e308, -1.7e308, 3e200, 0.1, -7.25,
}

// fillValues fills dst with Gaussians, a fraction of them replaced by
// special values.
func fillValues(dst []float64, src *rng.Source) {
	for i := range dst {
		if src.Intn(4) == 0 {
			dst[i] = specialValues[src.Intn(len(specialValues))]
		} else {
			dst[i] = src.NormFloat64()
		}
	}
}

func compareBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBitsOrBothNaN(got[i], want[i]) {
			t.Fatalf("%s: element %d = %x (%g), Go loop %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestAddRowsAVXMatchesGo: addRows in every form this process runs (the
// AVX-512 loop on the 64-column blocks, the AVX loop on the 4-column rest,
// the Go loop on what is left, as the form selects them) against the Go loop
// on the whole row, over row lengths 0–200 (every block boundary of both
// vector loops), entry counts across the 4-entry groups, operand rows strided
// past the row length, unaligned sub-slices and special values.
func TestAddRowsAVXMatchesGo(t *testing.T) {
	src := rng.New(41, 0)
	runEachKernel(t, func(t *testing.T) {
		for length := 0; length <= 200; length++ {
			for _, entries := range []int{0, 1, 3, 4, 5, 9, 23} {
				for off := 0; off < 4; off++ {
					stride := length + off%2*3
					rows := 6
					x := make([]float64, off+rows*stride+length)[off:]
					fillValues(x, src)
					a := make([]float64, entries)
					fillValues(a, src)
					idx := make([]uint32, entries)
					for p := range idx {
						idx[p] = uint32(src.Intn(rows + 1))
					}
					y0 := make([]float64, off+length)[off:]
					fillValues(y0, src)

					want := append([]float64(nil), y0...)
					addRowsGo(want, a, idx, x, stride)
					got := append([]float64(nil), y0...)
					addRows(got, a, idx, x, stride)
					compareBits(t, fmt.Sprintf("len=%d entries=%d off=%d", length, entries, off), got, want)
				}
			}
		}
	})
}

// TestChebyshevStepMatchesGo: the Chebyshev epilogue in every form this
// process runs (8-element ZMM blocks, 4-element YMM blocks, the Go loop on
// the rest) against the Go loop, over lengths 0–200, unaligned sub-slices,
// longer l1/conv/t than l0, and special values in the rows and in c.
func TestChebyshevStepMatchesGo(t *testing.T) {
	src := rng.New(53, 0)
	runEachKernel(t, func(t *testing.T) {
		for length := 0; length <= 200; length++ {
			for off := 0; off < 4; off++ {
				buf := make([]float64, 4*(off+length)+off)
				fillValues(buf, src)
				cs := make([]float64, 1)
				fillValues(cs, src)
				run := func(step func(l0, l1, conv, t []float64, c float64)) []float64 {
					b := append([]float64(nil), buf...)
					rows := func(i int) []float64 { return b[off+i*(off+length):] }
					step(rows(0)[:length], rows(1), rows(2), rows(3), cs[0])
					return b
				}
				compareBits(t, fmt.Sprintf("len=%d off=%d c=%g", length, off, cs[0]),
					run(ChebyshevStep), run(chebyshevGo))
			}
		}
	})
}

// TestSelectKernel: the form follows the CPUID and XCR0 words, and a CPU
// with AVX-512F whose OS does not save ZMM state, or whose highest CPUID
// leaf is below 7, runs the AVX loops.
func TestSelectKernel(t *testing.T) {
	const (
		osxsave, avx = 1 << 27, 1 << 28
		avx512f      = 1 << 16
		ecx          = osxsave | avx
		ymm, zmm     = 0x07, 0xE7
	)
	for _, c := range []struct {
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      kernelLevel
	}{
		{0, 0, 0, 0, kernelGo},
		{7, avx, avx512f, zmm, kernelGo},           // no OSXSAVE
		{7, osxsave, avx512f, zmm, kernelGo},       // no AVX
		{7, ecx, avx512f, 0x03, kernelGo},          // OS saves no YMM state
		{7, ecx, 0, ymm, kernelAVX},                // no AVX-512F
		{7, ecx, avx512f, ymm, kernelAVX},          // AVX-512F, no OS ZMM state
		{7, ecx, avx512f, ymm | 0x20, kernelAVX},   // opmask state only
		{7, ecx, avx512f, zmm &^ 0x80, kernelAVX},  // no ZMM16–31 state
		{6, ecx, avx512f, zmm, kernelAVX},          // leaf 7 absent
		{7, ecx, ^uint32(avx512f), zmm, kernelAVX}, // other leaf-7 bits only
		{7, ecx, avx512f, zmm, kernelAVX512},
		{0xd, ^uint32(0), ^uint32(0), ^uint32(0), kernelAVX512},
	} {
		if got := selectKernel(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("selectKernel(%#x, %#x, %#x, %#x) = %s, want %s", c.maxLeaf, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}

// TestAddRowsChecksOperandRows: an index past x's last row panics before
// either loop reads memory.
func TestAddRowsChecksOperandRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a bounds panic")
		}
	}()
	x := make([]float64, 3*8)
	addRows(make([]float64, 8), []float64{1}, []uint32{3}, x, 8)
}

// TestUpdateDotPanelsAVXBitIdenticalToGo: the QR's fused update + dot (one
// loop over up to four panels, the first under a lane mask, chained by
// updateDotPanels) and its dot-only loop against the Go loops, for 1–6 panels
// (a full four-panel call plus a remainder), every first
// lane, row counts 0–70, unaligned sub-slices, reflectors aliased inside the
// first panel (as in QR) and special values, panels and dots both compared.
// See DESIGN.md "Numerics".
func TestUpdateDotPanelsAVXBitIdenticalToGo(t *testing.T) {
	needKernel(t, kernelAVX)
	src := rng.New(43, 0)
	for m := 0; m <= 70; m++ {
		for np := 1; np <= 6; np++ {
			for lane := 0; lane < 4; lane++ {
				for _, off := range []int{0, 1, 3} {
					ps := 4*m + 4*off
					buf := make([]float64, off+np*ps+8*m+8*np)
					fillValues(buf, src)
					for _, aliased := range []bool{false, true} {
						if aliased && lane < 2 {
							continue
						}
						run := func(k kernelLevel) []float64 {
							defer func(saved kernelLevel) { kernel = saved }(kernel)
							kernel = k
							b := append([]float64(nil), buf...)
							c, v, u := b[off:], b[off+np*ps:], b[off+np*ps+4*m:]
							s, acc := b[len(b)-8*np:][:4*np], b[len(b)-4*np:]
							if aliased {
								v, u = c[lane-2:], c[lane-1:]
							}
							if lane == 0 {
								dotPanels(u, c, m, np, ps, acc)
							}
							updateDotPanels(v, u, c, m, np, ps, s, acc, lane)
							return b
						}
						compareBits(t, fmt.Sprintf("m=%d np=%d lane=%d off=%d aliased=%v", m, np, lane, off, aliased),
							run(kernelAVX), run(kernelGo))
					}
				}
			}
		}
	}
}

// TestRotateAVXMatchesGo: the AVX plane rotation against the Go loop over
// lengths 0–70, unaligned sub-slices and special operands and angles.
func TestRotateAVXMatchesGo(t *testing.T) {
	needKernel(t, kernelAVX)
	src := rng.New(47, 0)
	for length := 0; length <= 70; length++ {
		for off := 0; off < 4; off++ {
			buf := make([]float64, 2*(off+length))
			fillValues(buf, src)
			cs := make([]float64, 2)
			fillValues(cs, src)
			run := func(avx bool) []float64 {
				b := append([]float64(nil), buf...)
				x, y := b[off:off+length], b[2*off+length:][:length]
				if avx {
					w := length &^ 3
					rotateAVX(x[:w], y[:w], cs[0], cs[1])
					x, y = x[w:], y[w:]
				}
				rotateGo(x, y, cs[0], cs[1])
				return b
			}
			compareBits(t, fmt.Sprintf("len=%d off=%d", length, off), run(true), run(false))
		}
	}
}

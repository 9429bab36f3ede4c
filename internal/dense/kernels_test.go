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
// (a full four-panel call plus a remainder), every first lane, row counts
// 0–70, panel strides of one and two panels (an owner's panels are every
// W-th), contiguous reflectors at unaligned offsets and special values,
// panels and dots both compared. See DESIGN.md "Numerics".
func TestUpdateDotPanelsAVXBitIdenticalToGo(t *testing.T) {
	needKernel(t, kernelAVX)
	src := rng.New(43, 0)
	for m := 0; m <= 70; m++ {
		for np := 1; np <= 6; np++ {
			for lane := 0; lane < 4; lane++ {
				for _, off := range []int{0, 1, 3} {
					for _, stride := range []int{1, 2} {
						ps := stride * (4*m + 4*off)
						buf := make([]float64, off+np*ps+2*m+8*np)
						fillValues(buf, src)
						run := func(k kernelLevel) []float64 {
							defer func(saved kernelLevel) { kernel = saved }(kernel)
							kernel = k
							b := append([]float64(nil), buf...)
							c, v, u := b[off:], b[off+np*ps:][:m], b[off+np*ps+m:][:m]
							s, acc := b[len(b)-8*np:][:4*np], b[len(b)-4*np:]
							if lane == 0 {
								dotPanels(u, c, m, np, ps, acc)
							}
							updateDotPanels(v, u, c, m, np, ps, s, acc, lane)
							return b
						}
						compareBits(t, fmt.Sprintf("m=%d np=%d lane=%d off=%d stride=%d", m, np, lane, off, stride),
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

// TestFillGaussianBitIdenticalToFillNorm holds FillGaussian, on every kernel
// form, to rng.FillNorm row by row: row counts 0–70 (eight-row lane groups
// and the Go loop's remainder), column counts 0–70 (odd ones end on a
// cosine alone), many seeds, and fills that start mid-matrix.
func TestFillGaussianBitIdenticalToFillNorm(t *testing.T) {
	want := func(rows, cols int, seed uint64) []float64 {
		out := make([]float64, rows*cols)
		var src rng.Source
		for i := 0; i < rows; i++ {
			src.Seed(seed, uint64(i))
			src.FillNorm(out[i*cols : (i+1)*cols])
		}
		return out
	}
	check := func(t *testing.T, got, want []float64, what string) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d is %x, FillNorm gives %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	runEachKernel(t, func(t *testing.T) {
		for rows := 0; rows <= 70; rows++ {
			for cols := 0; cols <= 70; cols += 1 + rows%3 {
				seed := uint64(rows*131 + cols)
				m := NewMatrix(rows, cols)
				m.FillGaussian(seed)
				check(t, m.Data, want(rows, cols, seed), fmt.Sprintf("%dx%d seed %d", rows, cols, seed))
			}
		}
		for seed := uint64(0); seed < 200; seed++ {
			m := NewMatrix(24, 64)
			m.FillGaussian(seed * 0x9e3779b97f4a7c15)
			check(t, m.Data, want(24, 64, seed*0x9e3779b97f4a7c15), fmt.Sprintf("24x64 seed %d", seed))
		}
		got, w := make([]float64, 40*9), want(40, 9, 5)
		fillNormRows(got, 9, 5, 3, 37)
		clear(w[:3*9])
		clear(w[37*9:])
		check(t, got, w, "rows 3…36 of 40x9")
	})
}

// TestLogSincosLanesBitIdentical holds the vector loop's log and sincos
// lanes to math.Log and math.Sincos on the inputs Box–Muller can hand them
// where a branch or a rounding turns: log of 1, 2⁻⁵³, the √2/2 threshold of
// every binade and its neighbours, and random multiples of 2⁻⁵³; sincos of 0,
// the octant boundaries k·π/4 of 2π·u and their neighbours, the top of the
// range, and random 2π·u.
func TestLogSincosLanesBitIdentical(t *testing.T) {
	needKernel(t, kernelAVX512)
	var logs, angles []float64
	logs = append(logs, 1, 0x1p-53, math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0))
	for e := 0; e <= 53; e++ {
		h := math.Ldexp(math.Sqrt2/2, -e)
		logs = append(logs, h, math.Nextafter(h, 0), math.Nextafter(h, 1), math.Ldexp(1, -e))
	}
	angles = append(angles, 0, 0x1p-53, 2*math.Pi*(1-0x1p-53), 2*math.Pi*0.5)
	for k := 0; k <= 8; k++ {
		x := float64(k) * math.Pi / 4
		angles = append(angles, x, math.Nextafter(x, 0), math.Nextafter(x, 10))
	}
	src := rng.New(1, 2)
	for len(logs) < 4096 {
		logs = append(logs, 1-src.Float64())
		angles = append(angles, 2*math.Pi*src.Float64())
	}
	for len(angles) < len(logs) {
		angles = append(angles, 2*math.Pi*src.Float64())
	}
	for i := 0; i+8 <= len(logs); i += 8 {
		var lg, sn, cs [8]float64
		copy(lg[:], logs[i:])
		copy(sn[:], angles[i:])
		logSincosAVX512(&lg, &sn, &cs)
		for l := range 8 {
			x, a := logs[i+l], angles[i+l]
			ws, wc := math.Sincos(a)
			for _, c := range []struct {
				what      string
				in        float64
				got, want float64
			}{{"log", x, lg[l], math.Log(x)}, {"sin", a, sn[l], ws}, {"cos", a, cs[l], wc}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("%s(%x) = %x, math gives %x", c.what, math.Float64bits(c.in), math.Float64bits(c.got), math.Float64bits(c.want))
				}
			}
		}
	}
}

package dense

import (
	"fmt"
	"math"
	"testing"

	"lightne/internal/rng"
)

// kernelSets lists the kernel forms this machine can run: the Go loops
// always, the AVX loops where the CPU has them.
func kernelSets() []bool {
	if useAVX {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachKernelSet runs f once per kernel form, with useAVX set to it.
func forEachKernelSet(f func(name string)) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range kernelSets() {
		useAVX = avx
		name := "go"
		if avx {
			name = "avx"
		}
		f(name)
	}
}

func needAVX(t *testing.T) {
	if !useAVX {
		t.Skip("CPU or OS without AVX: only the Go loops run here")
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

// TestAddRowsAVXMatchesGo: the AVX row-accumulate on the 4-column prefix
// (plus the Go loop on the remainder, as addRows runs them) against the Go
// loop on the whole row, over row lengths 0–70, entry counts across the
// 4-entry groups, unaligned sub-slices and special values.
func TestAddRowsAVXMatchesGo(t *testing.T) {
	needAVX(t)
	src := rng.New(41, 0)
	for length := 0; length <= 70; length++ {
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
				w := length &^ 3
				addRowsAVX(got[:w], a, idx, x, stride)
				addRowsGo(got[w:], a, idx, x[w:], stride)
				compareBits(t, fmt.Sprintf("len=%d entries=%d off=%d", length, entries, off), got, want)
			}
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
	needAVX(t)
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
						run := func(avx bool) []float64 {
							defer func(saved bool) { useAVX = saved }(useAVX)
							useAVX = avx
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
							run(true), run(false))
					}
				}
			}
		}
	}
}

// TestRotateAVXMatchesGo: the AVX plane rotation against the Go loop over
// lengths 0–70, unaligned sub-slices and special operands and angles.
func TestRotateAVXMatchesGo(t *testing.T) {
	needAVX(t)
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

//go:build !amd64

package dense

// useAVX is false off amd64, where only the Go loops exist.
var useAVX = false

func addRowsAVX([]float64, []float64, []uint32, []float64, int)          { panic("dense: no AVX") }
func updateDotAVX(_, _, _ []float64, _, _, _ int, _, _ []float64, _ int) { panic("dense: no AVX") }
func dotPanelsAVX(_, _ []float64, _, _, _ int, _ []float64)              { panic("dense: no AVX") }
func rotateAVX([]float64, []float64, float64, float64)                   { panic("dense: no AVX") }

//go:build !amd64

package dense

// useAVX is false off amd64, where only the Go loops exist.
var useAVX = false

func addRowsAVX([]float64, []float64, []uint32, []float64, int)          { panic("dense: no AVX") }
func reflectPanelsAVX([]float64, []float64, int, int, int, float64, int) { panic("dense: no AVX") }
func rotateAVX([]float64, []float64, float64, float64)                   { panic("dense: no AVX") }

//go:build !amd64

package dense

// Off amd64 only the Go loops exist.
func detectKernel() kernelLevel { return kernelGo }

func addRowsAVX([]float64, []float64, []uint32, []float64, int)          { panic("dense: no AVX") }
func addRowsAVX512([]float64, []float64, []uint32, []float64, int)       { panic("dense: no AVX") }
func updateDotAVX(_, _, _ []float64, _, _, _ int, _, _ []float64, _ int) { panic("dense: no AVX") }
func dotPanelsAVX(_, _ []float64, _, _, _ int, _ []float64)              { panic("dense: no AVX") }
func rotateAVX([]float64, []float64, float64, float64)                   { panic("dense: no AVX") }
func chebyshevAVX(_, _, _, _ []float64, _ float64)                       { panic("dense: no AVX") }
func chebyshevAVX512(_, _, _, _ []float64, _ float64)                    { panic("dense: no AVX") }

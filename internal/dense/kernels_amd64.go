package dense

// useAVX selects the AVX loops of kernels_amd64.s; it is decided once, from
// CPUID (the CPU has AVX) and XGETBV (the OS saves YMM state).
var useAVX = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	ecx := cpuid1ECX()
	return ecx&osxsave != 0 && ecx&avx != 0 && xgetbv0()&6 == 6
}

func cpuid1ECX() uint32
func xgetbv0() uint32

//go:noescape
func addRowsAVX(y, a []float64, idx []uint32, x []float64, stride int)

//go:noescape
func updateDotAVX(v, u, c []float64, m, np, ps int, s, acc []float64, lane int)

//go:noescape
func dotPanelsAVX(u, c []float64, m, np, ps int, acc []float64)

//go:noescape
func rotateAVX(x, y []float64, c, s float64)

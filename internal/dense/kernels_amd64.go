package dense

// detectKernel reads the CPUID and XCR0 words selectKernel decides on. XGETBV
// faults unless the OS has enabled it (CPUID.1:ECX OSXSAVE), and leaf 7 is
// read only where the CPU has it.
func detectKernel() kernelLevel {
	const osxsave = 1 << 27
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&osxsave != 0 {
		xcr0 = xgetbv0()
	}
	return selectKernel(maxLeaf, ecx1, ebx7, xcr0)
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() uint32

//go:noescape
func addRowsAVX(y, a []float64, idx []uint32, x []float64, stride int)

//go:noescape
func addRowsAVX512(y, a []float64, idx []uint32, x []float64, stride int)

//go:noescape
func updateDotAVX(v, u, c []float64, m, np, ps int, s, acc []float64, lane int)

//go:noescape
func dotPanelsAVX(u, c []float64, m, np, ps int, acc []float64)

//go:noescape
func rotateAVX(x, y []float64, c, s float64)

//go:noescape
func chebyshevAVX(l0, l1, conv, t []float64, c float64)

//go:noescape
func chebyshevAVX512(l0, l1, conv, t []float64, c float64)

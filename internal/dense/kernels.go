package dense

import "lightne/internal/rng"

// The package's inner loops, each in up to three forms: the Go loop in this
// file, which runs everywhere and is the reference the tests hold the others
// to, an AVX loop (kernels_amd64.s, YMM registers) and, for the row
// accumulate, the Chebyshev epilogue and the Box–Muller fill, an AVX-512 loop
// (ZMM registers). The form is chosen once at start-up from CPUID and XGETBV
// (selectKernel). All are bit-identical because a vector lane is one output
// element: each element gets exactly the Go loop's operations in the Go
// loop's order, a multiply and then a separate add or subtract (never a fused
// multiply-add), and no sum is split across lanes. VEX- and EVEX-encoded and scalar SSE2 arithmetic share
// MXCSR, so all round to nearest with subnormals kept (the EVEX forms here
// carry no rounding override). Only NaN payloads may differ: with two NaN
// operands an add keeps its first source, and which operand is first is the
// register allocator's choice in compiled Go.

// kernelLevel is a form of the package's inner loops. Each form runs the one
// below it where it has no loop of its own: AVX-512 runs the AVX QR panels,
// rotations and row-accumulate columns past the last 64-column block.
type kernelLevel uint8

const (
	kernelGo     kernelLevel = iota // the Go loops
	kernelAVX                       // YMM loops (kernels_amd64.s)
	kernelAVX512                    // ZMM row accumulate, Chebyshev epilogue and Box–Muller fill
)

func (k kernelLevel) String() string {
	switch k {
	case kernelAVX:
		return "avx"
	case kernelAVX512:
		return "avx512"
	}
	return "go"
}

// kernel is the form this process runs, the best the CPU and OS support.
var kernel = detectKernel()

// selectKernel picks the form from the CPUID and XCR0 words: AVX needs
// CPUID.1:ECX OSXSAVE (bit 27) and AVX (bit 28) and the OS saving SSE and YMM
// state (XCR0 bits 1–2); AVX-512 also needs CPUID.(EAX=7,ECX=0):EBX AVX512F
// (bit 16), a CPU whose highest basic leaf is at least 7, and the OS saving
// the opmask and both halves of the ZMM file (XCR0 bits 5–7). The ZMM loops
// use AVX512F instructions only.
func selectKernel(maxLeaf, ecx1, ebx7, xcr0 uint32) kernelLevel {
	const osxsave, avx, avx512f = 1 << 27, 1 << 28, 1 << 16
	const ymmState, zmmState = 0x06, 0xE6
	switch {
	case ecx1&osxsave == 0 || ecx1&avx == 0 || xcr0&ymmState != ymmState:
		return kernelGo
	case maxLeaf >= 7 && ebx7&avx512f != 0 && xcr0&zmmState == zmmState:
		return kernelAVX512
	}
	return kernelAVX
}

// ForEachKernel runs f once per form this process can run, from the Go loops
// up to the one selected at start-up, with that form selected, and restores
// the selection. Tests and benchmarks use it to check and time every form; it
// must not run while another goroutine calls into this package.
func ForEachKernel(f func(name string)) {
	defer func(saved kernelLevel) { kernel = saved }(kernel)
	for k, best := kernelGo, kernel; k <= best; k++ {
		kernel = k
		f(k.String())
	}
}

// addRows adds Σ_p a[p]·x[idx[p]·stride : idx[p]·stride+len(y)] to y, each
// element one left-to-right sum over p starting from its current value. The
// AVX-512 loop takes the columns in blocks of 64, the AVX loop the rest in
// multiples of four, and the Go loop what is left. Every operand row is
// checked to lie inside x first.
func addRows(y, a []float64, idx []uint32, x []float64, stride int) {
	if len(y) == 0 || len(idx) == 0 {
		return
	}
	a = a[:len(idx)]
	top := idx[0]
	for _, r := range idx {
		top = max(top, r)
	}
	_ = x[int(top)*stride+len(y)-1]
	if kernel >= kernelAVX512 {
		w := len(y) &^ 63
		addRowsAVX512(y[:w], a, idx, x, stride)
		y, x = y[w:], x[w:]
	}
	if kernel >= kernelAVX {
		w := len(y) &^ 3
		addRowsAVX(y[:w], a, idx, x, stride)
		y, x = y[w:], x[w:]
		if len(y) == 0 {
			return
		}
	}
	addRowsGo(y, a, idx, x, stride)
}

// addRowsGo consumes four entries per pass over y, so an element is loaded
// and stored once per four entries; the sum per element is unchanged.
func addRowsGo(y, a []float64, idx []uint32, x []float64, stride int) {
	a = a[:len(idx)]
	p := 0
	for ; p+4 <= len(idx); p += 4 {
		a0, a1, a2, a3 := a[p], a[p+1], a[p+2], a[p+3]
		x0 := x[int(idx[p])*stride:][:len(y)]
		x1 := x[int(idx[p+1])*stride:][:len(y)]
		x2 := x[int(idx[p+2])*stride:][:len(y)]
		x3 := x[int(idx[p+3])*stride:][:len(y)]
		for j := range y {
			t := y[j]
			t += a0 * x0[j]
			t += a1 * x1[j]
			t += a2 * x2[j]
			t += a3 * x3[j]
			y[j] = t
		}
	}
	for ; p < len(idx); p++ {
		ap := a[p]
		xp := x[int(idx[p])*stride:][:len(y)]
		for j := range y {
			y[j] += ap * xp[j]
		}
	}
}

// The QR's two panel kernels work on np four-column panels ps elements apart
// (the layout of qr.go): v[i] and u[i] are element i of two reflectors, held
// contiguously, c[p·ps + 4i + l] is column l of panel p at row i, and column
// 4p+l of a panel run owns s[4p+l] and acc[4p+l].

// updateDotPanels applies one reflector and dots with the next in the same
// visit of each row: for i ascending, c ← c − s·v[i] (s the reflector's
// scaled dot), then acc += u[i]·c with the updated element. Lanes below lane
// of the first panel are computed but not stored.
func updateDotPanels(v, u, c []float64, m, np, ps int, s, acc []float64, lane int) {
	if m == 0 || np == 0 {
		return
	}
	_, _, _ = v[m-1], u[m-1], c[(np-1)*ps+4*m-1]
	_, _ = s[4*np-1], acc[4*np-1]
	if kernel < kernelAVX {
		updateDotPanelsGo(v, u, c, m, np, ps, s, acc, lane)
		return
	}
	for p := 0; p < np; p += 4 {
		updateDotAVX(v, u, c[p*ps:], m, min(4, np-p), ps, s[4*p:], acc[4*p:], lane)
		lane = 0
	}
}

func updateDotPanelsGo(v, u, c []float64, m, np, ps int, s, acc []float64, lane int) {
	for p := 0; p < np; p++ {
		updateDotPanelGo(v[:m], u[:m], c[p*ps:][:4*m], s[4*p:4*p+4], acc[4*p:4*p+4], lane)
		lane = 0
	}
}

func updateDotPanelGo(v, u, c, s, acc []float64, lane int) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for i, x := range v {
		y, row := u[i], c[4*i:4*i+4]
		r0, r1, r2, r3 := row[0]-s0*x, row[1]-s1*x, row[2]-s2*x, row[3]-s3*x
		switch lane {
		case 0:
			row[0] = r0
			fallthrough
		case 1:
			row[1] = r1
			fallthrough
		case 2:
			row[2] = r2
			fallthrough
		default:
			row[3] = r3
		}
		a0 += y * r0
		a1 += y * r1
		a2 += y * r2
		a3 += y * r3
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
}

// dotPanels sets acc[4p+l] to Σ u[i]·c, i ascending from +0: the dots of a
// reflector whose predecessor applies nothing.
func dotPanels(u, c []float64, m, np, ps int, acc []float64) {
	if m == 0 || np == 0 {
		clear(acc[:4*np])
		return
	}
	_, _, _ = u[m-1], c[(np-1)*ps+4*m-1], acc[4*np-1]
	if kernel < kernelAVX {
		dotPanelsGo(u, c, m, np, ps, acc)
		return
	}
	for p := 0; p < np; p += 4 {
		dotPanelsAVX(u, c[p*ps:], m, min(4, np-p), ps, acc[4*p:])
	}
}

func dotPanelsGo(u, c []float64, m, np, ps int, acc []float64) {
	u = u[:m]
	for p := 0; p < np; p++ {
		var a0, a1, a2, a3 float64
		c := c[p*ps:][:4*m]
		for i, y := range u {
			row := c[4*i : 4*i+4]
			a0 += y * row[0]
			a1 += y * row[1]
			a2 += y * row[2]
			a3 += y * row[3]
		}
		acc[4*p], acc[4*p+1], acc[4*p+2], acc[4*p+3] = a0, a1, a2, a3
	}
}

// rotate applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// element-wise.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	if kernel >= kernelAVX {
		w := len(x) &^ 3
		rotateAVX(x[:w], y[:w], c, s)
		x, y = x[w:], y[w:]
	}
	rotateGo(x, y, c, s)
}

func rotateGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// ChebyshevStep is one row of the Chebyshev recurrence and of the filter sum
// it feeds (prone.Propagate): for each j, l2 = (t[j] − 2·l1[j]) − l0[j] is
// written over l0[j], then conv[j] += c·l2. l1, conv and t must be at least
// as long as l0 and must not overlap it except element for element. The
// AVX-512 loop takes the elements in multiples of eight, the AVX loop the
// rest in multiples of four, and the Go loop what is left.
func ChebyshevStep(l0, l1, conv, t []float64, c float64) {
	n := len(l0)
	l1, conv, t = l1[:n], conv[:n], t[:n]
	if kernel >= kernelAVX512 {
		w := n &^ 7
		chebyshevAVX512(l0[:w], l1, conv, t, c)
		l0, l1, conv, t = l0[w:], l1[w:], conv[w:], t[w:]
	}
	if kernel >= kernelAVX {
		w := len(l0) &^ 3
		chebyshevAVX(l0[:w], l1, conv, t, c)
		l0, l1, conv, t = l0[w:], l1[w:], conv[w:], t[w:]
	}
	chebyshevGo(l0, l1, conv, t, c)
}

func chebyshevGo(l0, l1, conv, t []float64, c float64) {
	l1, conv, t = l1[:len(l0)], conv[:len(l0)], t[:len(l0)]
	for j, tv := range t {
		l2 := tv - 2*l1[j] - l0[j]
		l0[j] = l2
		conv[j] += c * l2
	}
}

// gaussLanes is normLanesAVX512's input: the xoshiro256++ state words of
// eight rows' streams, lane l in st[0…3][l], and each row's offset l·cols in
// st[4].
type gaussLanes [5][8]uint64

// fillNormRows fills rows lo…hi−1 of the cols-column row-major data, row i
// with rng.Source.FillNorm's draws from stream (seed, i). The AVX-512 loop
// runs eight rows' streams in the lanes of ZMM registers with Box–Muller's
// exact operation sequence (math.Log's, math.Sincos's, math.Sqrt); the Go
// loop, the reference, takes the rows left over.
func fillNormRows(data []float64, cols int, seed uint64, lo, hi int) {
	var src rng.Source
	if kernel == kernelAVX512 && cols > 0 {
		var st gaussLanes
		for l := range st[4] {
			st[4][l] = uint64(l * cols)
		}
		for ; lo+8 <= hi; lo += 8 {
			for l := range 8 {
				src.Seed(seed, uint64(lo+l))
				st[0][l], st[1][l], st[2][l], st[3][l] = src.State()
			}
			normLanesAVX512(data[lo*cols:(lo+8)*cols], cols, &st)
		}
	}
	for ; lo < hi; lo++ {
		src.Seed(seed, uint64(lo))
		src.FillNorm(data[lo*cols : (lo+1)*cols])
	}
}

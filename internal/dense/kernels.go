package dense

// The package's inner loops, each in two forms: the Go loop in this file,
// which runs everywhere and is the reference the tests hold the other to, and
// an AVX loop (kernels_amd64.s) used when the CPU and OS support it. Both are
// bit-identical because a vector lane is one output element: each element gets
// exactly the Go loop's operations in the Go loop's order, a multiply and then
// a separate add or subtract (never a fused multiply-add), and no sum is split
// across lanes. VEX-encoded and scalar SSE2 arithmetic share MXCSR, so both
// round to nearest with subnormals kept. Only NaN payloads may differ: with
// two NaN operands an add keeps its first source, and which operand is first
// is the register allocator's choice in compiled Go.

// addRows adds Σ_p a[p]·x[idx[p]·stride : idx[p]·stride+len(y)] to y, each
// element one left-to-right sum over p starting from its current value. The
// AVX loop takes the columns in multiples of four; the rest go through the
// Go loop. Every operand row is checked to lie inside x first.
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
	if useAVX {
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

// reflectPanels applies H = I − tau·v·vᵀ to the m rows starting at c of np
// (1–4) consecutive four-column panels ps elements apart (the QR layout of
// qr.go): v[4i] is the reflector's element i, c[p·ps + 4i + l] column l of
// panel p at row i. Lanes below lane of the first panel are left untouched.
func reflectPanels(v, c []float64, m, np, ps int, tau float64, lane int) {
	_, _ = v[4*(m-1)], c[(np-1)*ps+4*m-1]
	if useAVX {
		reflectPanelsAVX(v, c, m, np, ps, tau, lane)
		return
	}
	reflectPanelsGo(v, c, m, np, ps, tau, lane)
}

// reflectPanelsGo keeps one dot-product accumulator per column, so every
// column's dot is the single sequential sum Σ v[i]·c[i] and the four
// accumulators of a panel fill the add pipeline together.
func reflectPanelsGo(v, c []float64, m, np, ps int, tau float64, lane int) {
	for p := 0; p < np; p++ {
		reflectPanelGo(v[:4*m-3], c[p*ps:][:4*m], tau, lane)
		lane = 0
	}
}

func reflectPanelGo(v, c []float64, tau float64, lane int) {
	var d0, d1, d2, d3 float64
	for i := 0; i < len(v); i += 4 {
		x, row := v[i], c[i:i+4]
		d0 += x * row[0]
		d1 += x * row[1]
		d2 += x * row[2]
		d3 += x * row[3]
	}
	d0, d1, d2, d3 = d0*tau, d1*tau, d2*tau, d3*tau
	for i := 0; i < len(v); i += 4 {
		x, row := v[i], c[i:i+4]
		switch lane {
		case 0:
			row[0] = row[0] - d0*x
			fallthrough
		case 1:
			row[1] = row[1] - d1*x
			fallthrough
		case 2:
			row[2] = row[2] - d2*x
			fallthrough
		default:
			row[3] = row[3] - d3*x
		}
	}
}

// rotate applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// element-wise.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	if useAVX {
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

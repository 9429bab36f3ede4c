package dense

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"lightne/internal/par"
)

// Thin Householder QR — Algorithm 3's "Orthonormalize", the LAPACKE_sgeqrf +
// LAPACKE_sorgqr pair of the paper.
//
// Layout. Every Householder step is a dot product and an AXPY down a
// *column*, so the kernel copies the row-major n×d input once into a working
// buffer of four-column panels stored row-interleaved: element (i, j) lives at
// pw[(j/4)·4n + 4i + j%4]. Row i of a panel is four adjacent doubles, one
// vector register, so a reflector meets a panel as four dot products sharing
// one broadcast of v[i] per row (updateDotPanels, dotPanels; kernels.go).
// Reflector k overwrites column k from the diagonal down (R's entries above it
// are copied out first), and is never written again.
//
// Two phases, concurrent. R is formed on the calling goroutine with one pass
// over the trailing panels per reflector: H_k is applied to column k+1 alone,
// reflector k+1 is formed from it and published through an atomic counter,
// and one sweep then updates every remaining row by H_k while adding it into
// H_{k+1}'s dots. Q is accumulated on the other workers, two panels at a time
// in a per-worker scratch that stays in L2, as soon as the counter covers the
// group's last column: column j of Q is H_0·…·H_j·e_j, so a group needs
// reflectors 0…j only, starts from H_j·e_j and applies H_{j−1} … H_0 fused
// the same way (updating by H_k while dotting with H_{k−1}), then writes
// straight into Q's rows. The caller joins the Q workers once R is done: one
// fork-join per call. The textbook formulation's other reflectors multiply
// rows of e_j that are still exactly zero, a third of the flops for nothing.
//
// Determinism. Every floating-point operation and its operand order are
// those of the serial At/Set kernel this replaced (qrOracle in
// qr_oracle_test.go): a column's dot is one accumulator — one vector lane —
// adding v[i]·c[i] for i ascending from +0 in one goroutine, whoever runs it,
// never a split sum. So Q and R are bit-identical to it for every input whose
// intermediates stay finite, at every GOMAXPROCS, on either kernel form: the
// determinism contract of DESIGN.md. Faster orthonormalizations (blocked WY,
// CholeskyQR2, TSQR) reorder sums and so change every embedding's bits; four
// columns' independent sums in one register do not.
//
// Memory. One working buffer of ⌈d/4⌉·4·n elements (n×d when 4 divides d)
// plus a two-panel scratch (8·n elements) per worker, for at most one worker
// per Q group; QR adds the n×d result,
// QRInPlace writes the result over its input.

// QR computes the thin QR factorization A = Q·R of an n×d matrix with
// n >= d, returning Q (n×d, orthonormal columns) and R (d×d, upper
// triangular). A is not modified (the kernel only reads it).
func QR(a *Matrix) (q, r *Matrix) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("dense: QR requires rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	return householderQR(a, NewMatrix(a.Rows, a.Cols))
}

// QRInPlace is QR for callers that own a and do not need it afterwards: Q is
// written over a's storage (the returned q is a itself), saving one n×d
// allocation — the difference between a 4·n·k and a 3·n·k dense peak for the
// single-pass sketch, whose Y accumulator is dead the moment its Q factor
// exists. The results are bit-identical to QR(a).
func QRInPlace(a *Matrix) (q, r *Matrix) {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("dense: QRInPlace requires rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	return householderQR(a, a)
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (the Q factor of its thin QR). Rank-deficient inputs
// yield columns completing the basis arbitrarily but still orthonormal.
func Orthonormalize(a *Matrix) *Matrix {
	q, _ := QR(a)
	return q
}

// qrGroupPanels is the width, in panels, of a Q group: its scratch of 2·4n
// doubles (256 KiB at n = 4096) stays in L2 while every reflector below it
// passes over, and the first group is ready once the eighth reflector exists.
// One panel per group gives the fused sweep too few panels per row; four
// start the second core too late (both slower at 4096×64 on two cores).
const qrGroupPanels = 2

// qrParallelWork is the n·d² below which one goroutine runs both phases: a
// fork costs more than it can save on a QR of fewer flops.
const qrParallelWork = 1 << 18

// householderQR factors a and stores Q in q, which may be a itself: a is
// fully consumed by the copy into panels before q is written.
func householderQR(a, q *Matrix) (*Matrix, *Matrix) {
	n, d := a.Rows, a.Cols
	np, ps := (d+3)/4, 4*n // panel P is pw[P·ps : (P+1)·ps]
	pw := make([]float64, np*ps)
	work := make([]float64, d+8*np)
	taus, acc, s := work[:d], work[d:d+4*np], work[d+4*np:]
	r := NewMatrix(d, d)
	ng := (np + qrGroupPanels - 1) / qrGroupPanels
	workers := par.Workers()
	if n*d*d < qrParallelWork {
		workers = 1
	}
	// Workers 0…accumulators−1 take Q groups; any beyond only copy in.
	accumulators := max(1, min(workers, ng))
	const gs = qrGroupPanels * 4
	scratch := make([]float64, accumulators*(qrGroupPanels*ps+2*gs))

	var copied, formed, next, finished atomic.Int64
	// copyIn moves row block w of a into the panels.
	copyIn := func(w int) {
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			panelRow(pw[4*i:], a.Data[i*d:(i+1)*d], ps, true)
		}
		copied.Add(1)
	}

	// Q in groups of panels. Column j of Q is H_0·…·H_j·e_j: a group starts
	// from H_j·e_j for each of its columns j and applies reflectors down to
	// H_0, in a per-worker scratch of the group's panels, as soon as the
	// counter says its last column's reflector is formed. Reflector storage
	// is never written once formed, so the counter is the only
	// synchronization. Every column sees the serial kernel's operations in
	// its order: init, then H_{j−1} … H_0, each a dot over rows k… from +0.
	accumulate := func(w int) {
		buf := scratch[w*(qrGroupPanels*ps+2*gs):][:qrGroupPanels*ps+2*gs]
		wq, ga, gsc := buf[:qrGroupPanels*ps], buf[qrGroupPanels*ps:][:gs], buf[qrGroupPanels*ps+gs:]
		for g := int(next.Add(1)) - 1; g < ng; g = int(next.Add(1)) - 1 {
			c0, c1 := g*gs, min(d, (g+1)*gs)
			gp := (c1 - c0 + 3) / 4
			for spin := 0; formed.Load() < int64(c1); spin++ {
				if spin >= 64 {
					runtime.Gosched()
				}
			}
			have := false // ga holds reflector k's dots with the group's columns
			for k := c1 - 1; k >= 0; k-- {
				if first := max(k+1, c0); taus[k] != 0 && first < c1 {
					fp := first/4 - c0/4
					v, cg := pw[(k/4)*ps+4*k+k%4:], wq[fp*ps+4*k:]
					a, sc := ga[4*fp:4*gp], gsc[4*fp:4*gp]
					if !have {
						dotPanels(v, cg, n-k, gp-fp, ps, a)
					}
					for j := range a {
						sc[j] = a[j] * taus[k]
					}
					u := v // reflector k−1's dots: row k−1 here, rows k… fused
					if k > 0 {
						u = pw[((k-1)/4)*ps+4*(k-1)+(k-1)%4:]
						for j := range a {
							a[j] = 0
							a[j] += u[0] * wq[(fp+j/4)*ps+4*(k-1)+j%4]
						}
						u = u[4:]
					}
					updateDotPanels(v, u, cg, n-k, gp-fp, ps, sc, a, first%4)
					have = true
				} else {
					have = false
				}
				if k < c0 {
					continue
				}
				// Column k = H_k·e_k. The dot v·e_k is v[0] exactly, and
				// 0 - x is spelled out because -x would flip a zero's sign.
				col, v := wq[(k/4-c0/4)*ps+k%4:], pw[(k/4)*ps+k%4:]
				for i := 0; i < k; i++ {
					col[4*i] = 0
				}
				col[4*k] = 1
				if tau := taus[k]; tau != 0 {
					dot := v[4*k] * tau
					for i := k + 1; i < n; i++ {
						col[4*i] = 0 - dot*v[4*i]
					}
					col[4*k] = 1 - dot*v[4*k]
				} else {
					for i := k + 1; i < n; i++ {
						col[4*i] = 0
					}
				}
				have = false
			}
			for i := 0; i < n; i++ {
				panelRow(wq[4*i:], q.Data[i*d+c0:i*d+c1], ps, false)
			}
		}
	}

	// The waits below spin on counters instead of parking, so a call
	// allocates the same whoever finishes first.
	for w := 1; w < workers; w++ {
		go func() {
			copyIn(w)
			if w < accumulators {
				accumulate(w)
			}
			finished.Add(1)
		}()
	}
	copyIn(0)
	for copied.Load() < int64(workers) {
		runtime.Gosched()
	}

	// R, one pass over the trailing panels per reflector. Entering step k,
	// columns k+1… carry H_0…H_{k−1} and acc holds reflector k's dots with
	// them (computed while H_{k−1} was applied). Step k applies H_k to
	// column k+1 alone, forms and publishes reflector k+1 from it, then
	// sweeps the remaining panels once: each row is updated by H_k and added
	// into reflector k+1's dots. A dot is still v·c over ascending rows of
	// the updated column from +0, as in the serial kernel. Step −1 forms
	// reflector 0; after an identity reflector the sweep only takes dots.
	for k := -1; k < d-1; k++ {
		tk := 0.0
		if k >= 0 {
			tk = taus[k]
		}
		col := pw[((k+1)/4)*ps+(k+1)%4:]
		var normSq float64
		if tk != 0 {
			for j := k + 1; j < 4*np; j++ {
				s[j] = acc[j] * tk
			}
			v := pw[(k/4)*ps+k%4:]
			col[4*k] = col[4*k] - s[k+1]*v[4*k]
			for i := k + 1; i < n; i++ {
				x := col[4*i] - s[k+1]*v[4*i]
				col[4*i] = x
				normSq += x * x
			}
		} else {
			for i := k + 1; i < n; i++ {
				normSq += col[4*i] * col[4*i]
			}
		}
		formReflector(pw, r, taus, n, d, k+1, normSq)
		formed.Store(int64(k + 2))
		if k+2 >= d {
			continue
		}
		first := (k + 2) / 4
		u, c, a := pw[((k+1)/4)*ps+4*(k+1)+(k+1)%4:], pw[first*ps+4*(k+1):], acc[4*first:]
		if tk != 0 {
			v := pw[(k/4)*ps+4*k+k%4:]
			for j := k + 2; j < 4*np; j++ {
				e := &pw[(j/4)*ps+4*k+j%4]
				*e = *e - s[j]*v[0]
			}
			clear(a)
			updateDotPanels(v[4:], u, c, n-k-1, np-first, ps, s[4*first:], a, (k+2)%4)
		} else if taus[k+1] != 0 {
			dotPanels(u, c, n-k-1, np-first, ps, a)
		}
	}
	accumulate(0)
	for finished.Load() < int64(workers-1) {
		runtime.Gosched()
	}
	return q, r
}

// panelRow moves the row-major row rm into one row of consecutive panels
// (toPanels; p is panel 0 at that row) or back out of them.
func panelRow(p, rm []float64, ps int, toPanels bool) {
	for j := 0; j < len(rm); j += 4 {
		dst, src := p[(j/4)*ps:][:min(4, len(rm)-j)], rm[j:]
		if !toPanels {
			dst, src = src, dst
		}
		if len(src) >= 4 && len(dst) >= 4 {
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		} else {
			copy(dst, src)
		}
	}
}

// formReflector turns column k of the panels, whose rows k… have squared
// norm normSq, into R[:k+1, k] above and on the diagonal and reflector k
// from the diagonal down, with its tau in taus[k] (left 0 for H_k = I).
func formReflector(pw []float64, r *Matrix, taus []float64, n, d, k int, normSq float64) {
	col := pw[(k/4)*4*n+k%4:]
	for i := 0; i < k; i++ {
		r.Data[i*d+k] = col[4*i]
	}
	norm := math.Sqrt(normSq)
	akk := col[4*k]
	if norm == 0 {
		r.Data[k*d+k] = akk
		return
	}
	alpha := -norm
	if akk < 0 {
		alpha = norm
	}
	v0 := akk - alpha
	// ‖v‖² and the dot of v with column k (H_k on column k itself, of which
	// only the diagonal survives into R). Below the diagonal the column
	// still equals v, so both sums add the same x·x terms and differ only in
	// their first: v0·v0 against v0·akk. (dot starts as 0 + v0·akk, not
	// v0·akk: the sum of a -0 must come out +0.)
	vnormSq := v0 * v0
	var dot float64
	dot += v0 * akk
	for i := k + 1; i < n; i++ {
		x := col[4*i]
		vnormSq += x * x
		dot += x * x
	}
	if vnormSq == 0 {
		r.Data[k*d+k] = akk
		return
	}
	tau := 2 / vnormSq
	taus[k] = tau
	dot *= tau
	r.Data[k*d+k] = akk - dot*v0
	col[4*k] = v0
}

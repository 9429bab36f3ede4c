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
// Reflector k is formed in column k from the diagonal down (R's entries above
// it are copied out first) and copied into contiguous storage, refl[k·n+k…],
// which is never written again: every later reader takes it from there.
//
// R on every worker. The panels are owned cyclically — panel P by worker
// P mod W, W at most the panel count — and each owner keeps its columns' dots and scaled dots in lines
// of its own. Entering step k, columns k+1… carry H_0…H_{k−1} and each owner
// holds reflector k's dots with its columns (taken while H_{k−1} was
// applied). The owner of column k+1 applies H_k to that column alone, forms
// reflector k+1 from it and publishes it through an atomic counter. Every
// owner, once the counter covers k+1, sweeps its own trailing panels once:
// each row is updated by H_k and added into reflector k+1's dots. The owner
// of column k+2 sweeps that column's panel first and forms reflector k+2 as
// soon as it has, before the rest of its step-k sweep, so the next
// formation never waits for a whole step. The sweep after an identity
// reflector only takes dots.
//
// Q on every worker too, in groups of two panels, claimed in order by any
// worker as soon as the counter covers the group's last column: column j of
// Q is H_0·…·H_j·e_j, so a group needs reflectors 0…j only, starts from
// H_j·e_j and applies H_{j−1} … H_0 fused the same way (updating by H_k
// while dotting with H_{k−1}). R never reads a panel again once its last
// reflector is formed, so a group runs in place in its own panels. A worker
// advances its group one reflector at a time, also while it waits for R's
// next reflector, so the formation chain's waits are filled with Q work.
// After a barrier every worker copies a row block of Q out of the panels.
// One fork-join per call. The textbook formulation's other reflectors
// multiply rows of e_j that are still exactly zero, a third of the flops for
// nothing.
//
// Determinism. Every floating-point operation and its operand order are
// those of the serial At/Set kernel this replaced (qrOracle in
// qr_oracle_test.go): a column's dot is one accumulator — one vector lane —
// adding v[i]·c[i] for i ascending from +0 in one goroutine, the column's
// owner, never a split sum, and every reflector is formed by the same scalar
// chains on one goroutine. Which worker owns a column moves no bit. So Q and
// R are bit-identical to it for every input whose intermediates stay
// finite, at every GOMAXPROCS, on every kernel form: the determinism
// contract of DESIGN.md. Faster orthonormalizations (blocked WY,
// CholeskyQR2, TSQR) reorder sums and so change every embedding's bits; four
// columns' independent sums in one register do not.
//
// Memory. The panels, ⌈d/4⌉·4·n elements (n×d when 4 divides d), and a few
// cache lines per worker; the reflectors are kept in the result's storage,
// which is dead until Q is copied out. QR adds the n×d result, QRInPlace
// writes the result over its input.

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

// qrGroupPanels is the width, in panels, of a Q group: its 2·4n doubles
// (256 KiB at n = 4096) stay in L2 while every reflector below it passes
// over, and the first group is ready once the eighth reflector exists. One
// panel per group gives the fused sweep too few panels per row; four start
// Q too late (both slower at 4096×64 on two cores).
const qrGroupPanels = 2

// qrParallelWork is the n·d² below which one goroutine runs both phases: a
// fork costs more than it can save on a QR of fewer flops.
const qrParallelWork = 1 << 18

// qrGroupColumns is the width, in columns, of a Q group.
const qrGroupColumns = qrGroupPanels * 4

// qrFactor is one call's shared state. The panels are written only by their
// owners once copied in, and by the Q group that takes them over once their
// last reflector is formed; the reflectors, taus and R's columns are written
// once each, before the formed counter publishes them.
type qrFactor struct {
	a, q, r                   *Matrix
	n, d, np, ps, ng          int
	workers, owners, lpw      int // all workers, those owning panels, panels per owner at most
	pw, refl, work, taus      []float64
	copied, formed, next, qed atomic.Int64
	finished                  atomic.Int64
}

// qGroup is the Q group a worker holds: group g, its next reflector k
// (−1 when it holds none), and whether its dots with reflector k are in hand.
type qGroup struct {
	g, k int
	have bool
}

// householderQR factors a and stores Q in q, which may be a itself: a is
// fully consumed by the copy into panels before q's storage holds the
// reflectors, and those are dead before Q is copied out over them.
func householderQR(a, q *Matrix) (*Matrix, *Matrix) {
	n, d := a.Rows, a.Cols
	f := &qrFactor{a: a, q: q, r: NewMatrix(d, d), n: n, d: d, np: (d + 3) / 4, ps: 4 * n}
	f.workers = par.Workers()
	if n*d*d < qrParallelWork {
		f.workers = 1
	}
	f.ng = (f.np + qrGroupPanels - 1) / qrGroupPanels
	// Workers 0…owners−1 own panels of R; every worker takes Q groups.
	f.owners = max(1, min(f.workers, f.np))
	f.lpw = (f.np + f.owners - 1) / f.owners
	buf := make([]float64, f.np*f.ps+d+8+f.workers*f.lineLen())
	f.pw, f.work, f.refl = buf[:f.np*f.ps], buf[f.np*f.ps:], q.Data[:d*n]
	f.taus = f.work[:d]
	for w := 1; w < f.workers; w++ {
		go func() {
			f.run(w)
			f.finished.Add(1)
		}()
	}
	f.run(0)
	for f.finished.Load() < int64(f.workers-1) {
		runtime.Gosched()
	}
	return q, f.r
}

// lineLen is the length of each worker's lines in work: the acc and s lines
// of its panels, its Q group's dots and scaled dots, and a cache line of
// padding, so no two workers write one line.
func (f *qrFactor) lineLen() int { return 8*f.lpw + 2*qrGroupColumns + 8 }

// lines returns worker w's acc and s lines and its Q group's.
func (f *qrFactor) lines(w int) (acc, s, ga, gsc []float64) {
	l := f.work[f.d+8+w*f.lineLen():]
	return l[:4*f.lpw], l[4*f.lpw : 8*f.lpw], l[8*f.lpw:][:qrGroupColumns], l[8*f.lpw+qrGroupColumns:][:qrGroupColumns]
}

// run is worker w: it copies a row block of a into the panels, takes its
// share of R, doing Q steps while it waits for a reflector, takes Q groups
// until none is left, and once every worker has, copies a row block of Q
// out of the panels. The waits spin on counters instead of parking, so a
// call allocates the same whoever finishes first.
func (f *qrFactor) run(w int) {
	n, d := f.n, f.d
	lo, hi := w*n/f.workers, (w+1)*n/f.workers
	for i := lo; i < hi; i++ {
		panelRow(f.pw[4*i:], f.a.Data[i*d:(i+1)*d], f.ps, true)
	}
	f.copied.Add(1)
	for f.copied.Load() < int64(f.workers) {
		runtime.Gosched()
	}
	qg := qGroup{k: -1}
	if w < f.owners {
		f.rShare(w, &qg)
	}
	for spin := 0; qg.k >= 0 || f.next.Load() < int64(f.ng); spin++ {
		if f.qStep(w, &qg) {
			spin = 0
		} else if spin >= 64 {
			runtime.Gosched()
		}
	}
	f.qed.Add(1)
	for f.qed.Load() < int64(f.workers) {
		runtime.Gosched()
	}
	for i := lo; i < hi; i++ {
		panelRow(f.pw[4*i:], f.q.Data[i*d:(i+1)*d], f.ps, false)
	}
}

// waitFormed returns once reflectors 0…k−1 are formed, advancing worker w's
// Q group meanwhile.
func (f *qrFactor) waitFormed(w, k int, qg *qGroup) {
	for spin := 0; f.formed.Load() < int64(k); spin++ {
		if f.qStep(w, qg) {
			spin = 0
		} else if spin >= 64 {
			runtime.Gosched()
		}
	}
}

// rShare is worker w's share of R: formations of its columns and sweeps of
// its panels, P ≡ w (mod owners), step by step, until none of its panels is
// left. Its acc and s lines hold entry 4l + j%4 for column j of its local
// panel l = P/owners.
func (f *qrFactor) rShare(w int, qg *qGroup) {
	d, np, owners := f.d, f.np, f.owners
	acc, s, _, _ := f.lines(w)
	if w == 0 {
		f.form(-1, acc)
	}
	for k := -1; k+2 < d; k++ {
		first := (k + 2) / 4
		P := first + (w-first%owners+owners)%owners
		if P >= np {
			break
		}
		f.waitFormed(w, k+2, qg)
		l, cnt := P/owners, (np-1-P)/owners+1
		if P == first {
			// This worker owns column k+2: sweep its panel first and form
			// reflector k+2 before the rest of the step.
			f.sweep(k, P, l, 1, acc, s)
			f.form(k+1, acc)
			P, l, cnt = P+owners, l+1, cnt-1
		}
		f.sweep(k, P, l, cnt, acc, s)
	}
}

// form is step k's formation, on the owner of column k+1 (acc its dots
// line): H_k is applied to column k+1 alone, from row k down, and reflector
// k+1 is formed from it, copied out and published. Step −1 forms
// reflector 0.
func (f *qrFactor) form(k int, acc []float64) {
	n, ps, taus := f.n, f.ps, f.taus
	col := f.pw[((k+1)/4)*ps+(k+1)%4:]
	var normSq float64
	if k >= 0 && taus[k] != 0 {
		sk := acc[4*((k+1)/4/f.owners)+(k+1)%4] * taus[k]
		v := f.refl[k*n+k : (k+1)*n]
		col[4*k] = col[4*k] - sk*v[0]
		for i := k + 1; i < n; i++ {
			x := col[4*i] - sk*v[i-k]
			col[4*i] = x
			normSq += x * x
		}
	} else {
		for i := k + 1; i < n; i++ {
			normSq += col[4*i] * col[4*i]
		}
	}
	formReflector(col, f.refl[(k+1)*n:(k+2)*n], f.r, taus, k+1, normSq)
	f.formed.Store(int64(k + 2))
}

// sweep is step k's pass over cnt panels of one owner, from panel P, its
// local panel l (the next are P+owners, …): row k is updated by H_k, then
// rows k+1… are updated and added into reflector k+1's dots. In the panel
// holding column k+2, lanes below it are left alone.
func (f *qrFactor) sweep(k, P, l, cnt int, acc, s []float64) {
	if cnt == 0 {
		return
	}
	n, ps, owners, taus := f.n, f.ps, f.owners, f.taus
	lane := 0
	if P == (k+2)/4 {
		lane = (k + 2) % 4
	}
	u, c := f.refl[(k+1)*n+k+1:(k+2)*n], f.pw[P*ps+4*(k+1):]
	a, sl := acc[4*l:4*(l+cnt)], s[4*l:4*(l+cnt)]
	if k >= 0 && taus[k] != 0 {
		tk, v := taus[k], f.refl[k*n+k:(k+1)*n]
		for j := range a {
			sl[j] = a[j] * tk
		}
		for p, lo := 0, lane; p < cnt; p, lo = p+1, 0 {
			row := f.pw[(P+p*owners)*ps+4*k:][:4]
			for j := lo; j < 4; j++ {
				row[j] = row[j] - sl[4*p+j]*v[0]
			}
		}
		clear(a)
		updateDotPanels(v[1:], u, c, n-k-1, cnt, owners*ps, sl, a, lane)
	} else if taus[k+1] != 0 {
		dotPanels(u, c, n-k-1, cnt, owners*ps, a)
	}
}

// qStep advances worker w's Q group by one reflector, first claiming the
// next group if it holds none and that group's last reflector is formed;
// it reports whether there was anything to do. Column j of Q is
// H_0·…·H_j·e_j: a group starts from H_j·e_j for each of its columns j and
// applies reflectors down to H_0, in place in the group's panels, which R
// no longer reads once the group's last reflector is formed. Every column
// sees the serial kernel's operations in its order: init, then H_{j−1} …
// H_0, each a dot over rows k… from +0.
func (f *qrFactor) qStep(w int, qg *qGroup) bool {
	n, d, ps, taus, refl := f.n, f.d, f.ps, f.taus, f.refl
	if qg.k < 0 {
		g := f.next.Load()
		if g >= int64(f.ng) || f.formed.Load() < int64(min(d, int(g+1)*qrGroupColumns)) ||
			!f.next.CompareAndSwap(g, g+1) {
			return false
		}
		qg.g, qg.k, qg.have = int(g), min(d, int(g+1)*qrGroupColumns)-1, false
	}
	_, _, ga, gsc := f.lines(w)
	k, c0, c1 := qg.k, qg.g*qrGroupColumns, min(d, (qg.g+1)*qrGroupColumns)
	gp, wq := (c1-c0+3)/4, f.pw[c0/4*ps:]
	if first := max(k+1, c0); taus[k] != 0 && first < c1 {
		fp := first/4 - c0/4
		v, cg := refl[k*n+k:(k+1)*n], wq[fp*ps+4*k:]
		a, sc := ga[4*fp:4*gp], gsc[4*fp:4*gp]
		if !qg.have {
			dotPanels(v, cg, n-k, gp-fp, ps, a)
		}
		for j := range a {
			sc[j] = a[j] * taus[k]
		}
		u := v // reflector k−1's dots: row k−1 here, rows k… fused
		if k > 0 {
			u = refl[(k-1)*n+k-1 : k*n]
			for j := range a {
				a[j] = 0
				a[j] += u[0] * wq[(fp+j/4)*ps+4*(k-1)+j%4]
			}
			u = u[1:]
		}
		updateDotPanels(v, u, cg, n-k, gp-fp, ps, sc, a, first%4)
		qg.have = true
	} else {
		qg.have = false
	}
	if k >= c0 {
		// Column k = H_k·e_k. The dot v·e_k is v[k] exactly, and 0 - x is
		// spelled out because -x would flip a zero's sign.
		col, v := wq[(k/4-c0/4)*ps+k%4:], refl[k*n:(k+1)*n]
		for i := 0; i < k; i++ {
			col[4*i] = 0
		}
		col[4*k] = 1
		if tau := taus[k]; tau != 0 {
			dot := v[k] * tau
			for i := k + 1; i < n; i++ {
				col[4*i] = 0 - dot*v[i]
			}
			col[4*k] = 1 - dot*v[k]
		} else {
			for i := k + 1; i < n; i++ {
				col[4*i] = 0
			}
		}
		qg.have = false
	}
	qg.k--
	return true
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

// formReflector turns column k of the panels (col, from row 0, four
// elements a row), whose rows k… have squared norm normSq, into R[:k+1, k]
// above and on the diagonal and reflector k, stored in rv[k:], with its tau in
// taus[k] (left 0 for H_k = I, rv then unwritten).
func formReflector(col, rv []float64, r *Matrix, taus []float64, k int, normSq float64) {
	n, d := len(rv), r.Cols
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
		rv[i] = x
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
	rv[k] = v0
}

package dense

import (
	"fmt"
	"math"

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
// one broadcast of v[i] per row and one subtract per row (reflectPanels,
// kernels.go). Reflector k overwrites column k from the diagonal down (R's
// entries above it are copied out first), so the elimination allocates
// nothing per reflector. Q is then accumulated in the same buffer, backwards:
// at step k columns k+1…d-1 already hold H_{k+1}·…·H_{d-1}·e_j, reflector k
// is applied to them, and column k — no longer needed as a reflector — is
// replaced by H_k·e_k. Column j thus only ever sees the reflectors k ≤ j; the
// textbook formulation's others multiply rows that are still exactly zero, a
// third of the flops for nothing. The panel holding column k is updated with
// its lanes ≤ k%4 left untouched; a last panel of fewer than four columns
// carries zero lanes that are updated and never read back.
//
// Parallel axis and determinism. Applying H_k to a column touches that column
// only, so each step fans the trailing panels out with par.ForRange. Which
// goroutine gets which panel is schedule-dependent; what is computed for a
// column is not: its dot product is one accumulator — one vector lane — adding
// v[i]·c[i] for i ascending in one goroutine, never a split sum. Every
// floating-point operation and its operand order are those of the serial
// At/Set kernel this replaced (qrOracle in qr_oracle_test.go), so Q and R are
// bit-identical to it for every input whose intermediates stay finite, at
// every GOMAXPROCS, on either kernel form. Faster orthonormalizations
// (blocked WY, CholeskyQR2, TSQR) reorder sums and so change every
// embedding's bits; four columns' independent sums in one register do not.
//
// Memory. One working buffer of ⌈d/4⌉·4·n elements (n×d when 4 divides d);
// QR adds the n×d result, QRInPlace writes the result over its input.

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

// householderQR factors a and stores Q in q, which may be a itself: a is
// fully consumed by the copy into panels before q is written.
func householderQR(a, q *Matrix) (*Matrix, *Matrix) {
	n, d := a.Rows, a.Cols
	np, ps := (d+3)/4, 4*n // panel P is pw[P·ps : (P+1)·ps]
	pw := make([]float64, np*ps)
	panelCopy(pw, a.Data, n, d, true)
	taus := make([]float64, d)
	r := NewMatrix(d, d)

	// One closure for all 2·d fan-outs: it reads the current step through k
	// and tau, so no step allocates. The fan-out unit is a panel; step k has
	// trailing(k) of them, from the one holding column k+1 on.
	var k int
	var tau float64
	trailing := func(k int) int {
		if k+1 >= d {
			return 0
		}
		return np - (k+1)/4
	}
	applyToTrailing := func(lo, hi int) {
		v := pw[(k/4)*ps+4*k+k%4:]
		first := (k + 1) / 4
		for p := lo; p < hi; p += 4 {
			lane := 0
			if p == 0 {
				lane = (k + 1) % 4
			}
			reflectPanels(v, pw[(first+p)*ps+4*k:], n-k, min(4, hi-p), ps, tau, lane)
		}
	}

	// Elimination: column k becomes R[:k+1, k] above/on the diagonal and
	// reflector k from the diagonal down. col[4i] is element i of column k.
	for k = 0; k < d; k++ {
		col := pw[(k/4)*ps+k%4:]
		for i := 0; i < k; i++ {
			r.Data[i*d+k] = col[4*i]
		}
		var normSq float64
		for i := k; i < n; i++ {
			x := col[4*i]
			normSq += x * x
		}
		norm := math.Sqrt(normSq)
		akk := col[4*k]
		if norm == 0 {
			r.Data[k*d+k] = akk
			continue // taus[k] stays 0: H_k = I
		}
		alpha := -norm
		if akk < 0 {
			alpha = norm
		}
		v0 := akk - alpha
		// ‖v‖² and the dot of v with column k (H_k on column k itself, of
		// which only the diagonal survives into R). Below the diagonal the
		// column still equals v, so both sums add the same x·x terms and
		// differ only in their first: v0·v0 against v0·akk. (dot starts as
		// 0 + v0·akk, not v0·akk: the sum of a -0 must come out +0.)
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
			continue
		}
		tau = 2 / vnormSq
		taus[k] = tau
		dot *= tau
		r.Data[k*d+k] = akk - dot*v0
		col[4*k] = v0
		par.ForRange(trailing(k), reflectGrain(n-k), applyToTrailing)
	}

	// Q = H_0·…·H_{d-1}·[I; 0], accumulated backwards in place.
	for k = d - 1; k >= 0; k-- {
		col := pw[(k/4)*ps+k%4:]
		for i := 0; i < k; i++ {
			col[4*i] = 0
		}
		tau = taus[k]
		if tau == 0 {
			col[4*k] = 1
			for i := k + 1; i < n; i++ {
				col[4*i] = 0
			}
			continue
		}
		par.ForRange(trailing(k), reflectGrain(n-k), applyToTrailing)
		// Column k = H_k·e_k. The dot v·e_k is v[0] exactly (every other
		// term is v[i]·0), and 0 - x is spelled out because -x would flip
		// the sign of a zero.
		v0 := col[4*k]
		dot := v0 * tau
		for i := k + 1; i < n; i++ {
			col[4*i] = 0 - dot*col[4*i]
		}
		col[4*k] = 1 - dot*v0
	}

	panelCopy(pw, q.Data, n, d, false)
	return q, r
}

// reflectGrain is the par.ForRange grain, in panels, for applying a reflector
// of length m: at least four panels, so one reflectPanels call fills its four
// accumulators, and enough elements per chunk that a goroutine hand-off is
// noise. The grain affects only who computes a column, never what is
// computed.
func reflectGrain(m int) int {
	return 4 + 4096/(m+1)
}

// panelCopy moves the row-major n×d matrix rm into the panel buffer pw
// (toPanels) or back out of it, parallel over rows. Row i of panel P is
// the four adjacent elements rm[i·d + 4P …] of the row-major row.
func panelCopy(pw, rm []float64, n, d int, toPanels bool) {
	ps := 4 * n
	par.ForRange(n, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := rm[i*d : (i+1)*d]
			for j := 0; j < d; j += 4 {
				dst, src := pw[(j/4)*ps+4*i:][:min(4, d-j)], row[j:]
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
	})
}

package dense

import (
	"fmt"
	"math"

	"lightne/internal/par"
)

// Thin Householder QR — Algorithm 3's "Orthonormalize", the LAPACKE_sgeqrf +
// LAPACKE_sorgqr pair of the paper.
//
// Layout. Matrices are row-major everywhere else in this package, but every
// Householder step is a dot product and an AXPY down a *column*. The kernel
// therefore transposes the n×d input once into a column-major working buffer
// (column j is the contiguous slice w[j·n : (j+1)·n]), does all of its
// arithmetic on contiguous slices, and transposes the finished Q back.
// Reflector k overwrites column k of the buffer from the diagonal down (R's
// entries above the diagonal are copied out first), so the elimination
// allocates nothing per reflector. Q is then accumulated in the same buffer,
// backwards: at step k columns k+1…d-1 already hold H_{k+1}·…·H_{d-1}·e_j,
// reflector k is applied to them, and column k — no longer needed as a
// reflector — is replaced by H_k·e_k. Column j thus only ever sees the
// reflectors k ≤ j; the ones the textbook formulation also applies multiply
// rows that are still exactly zero, which is a third of the flops for
// nothing.
//
// Parallel axis and determinism. Applying H_k to a column touches that column
// only, so each step fans the trailing columns out with par.ForRange. Which
// goroutine gets which column is schedule-dependent; what is computed for a
// column is not: its dot product is a single left-to-right sum inside one
// goroutine, and the four-column register tile in reflect4 keeps one
// accumulator *per column* (instruction-level parallelism across columns,
// never a split sum). Every floating-point operation and its operand order
// are those of the serial At/Set kernel this replaced (kept verbatim as
// qrOracle in qr_oracle_test.go), so Q and R are bit-identical to it for
// every input whose intermediates stay finite, at every GOMAXPROCS.
//
// Cost. O(n·d²) flops like the SpMMs around it, but the serial At/Set kernel
// ran them at 0.2–0.45 Gflop/s (stride-d loads, one add-latency chain) and
// was ~73 % of a default embed. Medians of `make bench-qr` on 2 vCPUs, old →
// new: 4096×64 146 → 16.4 ms, 8192×32 88 → 9.1 ms, 16384×64 1337 → 45 ms
// (4–6 Gflop/s on the geqrf+orgqr count). What remains is scalar Go at about
// two flops a cycle a core; going further needs reordered sums (blocked WY,
// CholeskyQR2, TSQR), which changes every embedding's bits — ROADMAP item 2.
//
// Memory. One n×d working buffer; QR adds the n×d result, QRInPlace writes
// the result over its input. Both are what the previous kernel needed.

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
// fully consumed by the initial transpose before q is written.
func householderQR(a, q *Matrix) (*Matrix, *Matrix) {
	n, d := a.Rows, a.Cols
	w := make([]float64, n*d) // column-major: column j is w[j*n:(j+1)*n]
	transposeInto(w, a.Data, n, d)
	taus := make([]float64, d)
	r := NewMatrix(d, d)

	// One closure for all 2·d fan-outs: it reads the current step through k
	// and tau, so no step allocates. The fan-out unit is a tile of four
	// trailing columns, so chunk boundaries never split a register tile;
	// step k has trailingTiles(k) of them.
	var k int
	var tau float64
	trailingTiles := func(k int) int { return (d - k - 1 + 3) / 4 }
	applyToTrailing := func(lo, hi int) {
		v := w[k*n+k : (k+1)*n]
		j, end := k+1+4*lo, min(k+1+4*hi, d)
		for ; j+4 <= end; j += 4 {
			reflect4(v, tau, w[j*n+k:(j+1)*n], w[(j+1)*n+k:(j+2)*n], w[(j+2)*n+k:(j+3)*n], w[(j+3)*n+k:(j+4)*n])
		}
		for ; j < end; j++ {
			reflect1(v, tau, w[j*n+k:(j+1)*n])
		}
	}

	// Elimination: column k becomes R[:k+1, k] above/on the diagonal and
	// reflector k from the diagonal down.
	for k = 0; k < d; k++ {
		col := w[k*n : (k+1)*n]
		for i := 0; i < k; i++ {
			r.Data[i*d+k] = col[i]
		}
		v := col[k:]
		var normSq float64
		for _, x := range v {
			normSq += x * x
		}
		norm := math.Sqrt(normSq)
		akk := v[0]
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
		for _, x := range v[1:] {
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
		v[0] = v0
		par.ForRange(trailingTiles(k), reflectGrain(n-k), applyToTrailing)
	}

	// Q = H_0·…·H_{d-1}·[I; 0], accumulated backwards in place.
	for k = d - 1; k >= 0; k-- {
		col := w[k*n : (k+1)*n]
		clear(col[:k])
		v := col[k:]
		tau = taus[k]
		if tau == 0 {
			v[0] = 1
			clear(v[1:])
			continue
		}
		par.ForRange(trailingTiles(k), reflectGrain(n-k), applyToTrailing)
		// Column k = H_k·e_k. The dot v·e_k is v[0] exactly (every other
		// term is v[i]·0), and 0 - x is spelled out because -x would flip
		// the sign of a zero.
		dot := v[0] * tau
		for i, x := range v[1:] {
			v[1+i] = 0 - dot*x
		}
		v[0] = 1 - dot*v[0]
	}

	transposeInto(q.Data, w, d, n)
	return q, r
}

// reflectGrain is the par.ForRange grain, in four-column tiles, for applying
// a reflector of length m: enough elements per chunk that a goroutine
// hand-off is noise. The grain affects only who computes a column, never
// what is computed.
func reflectGrain(m int) int {
	return 1 + 4096/(m+1)
}

// reflect1 applies H = I - tau·v·vᵀ to one column c (len(c) == len(v)).
func reflect1(v []float64, tau float64, c []float64) {
	c = c[:len(v)]
	var dot float64
	for i, x := range v {
		dot += x * c[i]
	}
	dot *= tau
	for i, x := range v {
		c[i] = c[i] - dot*x
	}
}

// reflect4 is reflect1 on four columns at once. A dot product is a chain of
// dependent adds, so one column alone runs at the add latency; four chains
// with one accumulator each fill the pipeline and share the loads of v. Each
// column's sum is still the single sequential sum reflect1 computes.
func reflect4(v []float64, tau float64, c0, c1, c2, c3 []float64) {
	c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
	var d0, d1, d2, d3 float64
	for i, x := range v {
		d0 += x * c0[i]
		d1 += x * c1[i]
		d2 += x * c2[i]
		d3 += x * c3[i]
	}
	d0 *= tau
	d1 *= tau
	d2 *= tau
	d3 *= tau
	for i, x := range v {
		c0[i] = c0[i] - d0*x
		c1[i] = c1[i] - d1*x
		c2[i] = c2[i] - d2*x
		c3[i] = c3[i] - d3*x
	}
}

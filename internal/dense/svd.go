package dense

import (
	"fmt"
	"math"
	"sort"
)

// SVD computes the thin singular value decomposition A = U·diag(σ)·Vᵀ of an
// n×d matrix with n >= d. It returns U (n×d), the singular values σ in
// descending order, and V (d×d). A is not modified. This is the
// LAPACKE_sgesvd stand-in from Algorithm 3; in the randomized SVD it only
// ever runs on the small d×d projected matrix C.
//
// Implementation: one-sided Jacobi. Column pairs are repeatedly
// orthogonalized by right-rotations until every pair is numerically
// orthogonal; then σ_j = ‖a_j‖ and u_j = a_j/σ_j. One-sided Jacobi is
// unconditionally convergent and delivers high relative accuracy even for
// tiny singular values, which matters because Σ^{1/2} feeds the embedding.
//
// U and V are worked on as column-major copies, so a column pair is two
// contiguous slices: the three Gram sums run down them in one sequential
// loop, and each rotation is one element-wise pass (rotate, kernels.go).
// Every operation and its order are those of the At/Set kernel this replaced
// (svdOracle in svd_oracle_test.go), so the factors are bit-identical to it.
func SVD(a *Matrix) (u *Matrix, sigma []float64, v *Matrix) {
	n, d := a.Rows, a.Cols
	if n < d {
		panic(fmt.Sprintf("dense: SVD requires rows >= cols, got %dx%d", n, d))
	}
	if d == 0 {
		return a.Clone(), nil, NewMatrix(0, 0)
	}
	uw := make([]float64, n*d) // column j of U is uw[j*n : (j+1)*n]
	transposeInto(uw, a.Data, n, d)
	vw := make([]float64, d*d) // column j of V is vw[j*d : (j+1)*d]
	for j := 0; j < d; j++ {
		vw[j*d+j] = 1
	}

	const (
		eps       = 1e-15
		maxSweeps = 60
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < d-1; p++ {
			up := uw[p*n : (p+1)*n]
			for q := p + 1; q < d; q++ {
				uq := uw[q*n : (q+1)*n][:len(up)]
				// Gram entries of the column pair.
				var app, aqq, apq float64
				for i, x := range up {
					y := uq[i]
					app += x * x
					aqq += y * y
					apq += x * y
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				converged = false
				// Jacobi rotation annihilating the off-diagonal Gram entry.
				zeta := (aqq - app) / (2 * apq)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(up, uq, c, s)
				rotate(vw[p*d:(p+1)*d], vw[q*d:(q+1)*d], c, s)
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values and normalize U's columns.
	sigma = make([]float64, d)
	for j := 0; j < d; j++ {
		col := uw[j*n : (j+1)*n]
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		sigma[j] = math.Sqrt(norm)
		if sigma[j] > 0 {
			inv := 1 / sigma[j]
			for i := range col {
				col[i] *= inv
			}
		}
	}

	// Sort descending by singular value, permuting U and V consistently.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sigma[idx[a]] > sigma[idx[b]] })
	us := NewMatrix(n, d)
	vs := NewMatrix(d, d)
	sigmaSorted := make([]float64, d)
	for newJ, oldJ := range idx {
		sigmaSorted[newJ] = sigma[oldJ]
		for i, x := range uw[oldJ*n : (oldJ+1)*n] {
			us.Data[i*d+newJ] = x
		}
		for i, x := range vw[oldJ*d : (oldJ+1)*d] {
			vs.Data[i*d+newJ] = x
		}
	}
	return us, sigmaSorted, vs
}

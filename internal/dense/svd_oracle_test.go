package dense

import (
	"math"
	"sort"
)

// svdOracle is the At/Set one-sided Jacobi SVD this package shipped before
// the column-major rewrite, moved here verbatim (shape check dropped). SVD
// must reproduce its U, σ and V bit for bit (TestSVDBitIdenticalToOracle).
func svdOracle(a *Matrix) (u *Matrix, sigma []float64, v *Matrix) {
	n, d := a.Rows, a.Cols
	u = a.Clone()
	v = NewMatrix(d, d)
	for j := 0; j < d; j++ {
		v.Set(j, j, 1)
	}
	if d == 0 {
		return u, nil, v
	}

	const (
		eps       = 1e-15
		maxSweeps = 60
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < d-1; p++ {
			for q := p + 1; q < d; q++ {
				// Gram entries of the column pair.
				var app, aqq, apq float64
				for i := 0; i < n; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
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
				for i := 0; i < n; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < d; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values and normalize U's columns.
	sigma = make([]float64, d)
	for j := 0; j < d; j++ {
		var norm float64
		for i := 0; i < n; i++ {
			x := u.At(i, j)
			norm += x * x
		}
		sigma[j] = math.Sqrt(norm)
		if sigma[j] > 0 {
			inv := 1 / sigma[j]
			for i := 0; i < n; i++ {
				u.Set(i, j, u.At(i, j)*inv)
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
		for i := 0; i < n; i++ {
			us.Set(i, newJ, u.At(i, oldJ))
		}
		for i := 0; i < d; i++ {
			vs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return us, sigmaSorted, vs
}

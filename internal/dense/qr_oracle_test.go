package dense

import "math"

// qrOracle is the pre-column-major production kernel (qrInPlace as of PR 20),
// moved here verbatim as the test-only oracle: a serial Householder
// elimination that walks columns of the row-major matrix through At/Set with
// one reflector slice per column. The production kernel in qr.go must
// reproduce its Q and R bit for bit (TestQRBitIdenticalToOracle); it also
// serves as the "before" side of BenchmarkQROracle. work is destroyed.
func qrOracle(work *Matrix) (q, r *Matrix) {
	n, d := work.Rows, work.Cols
	taus := make([]float64, d)
	vs := make([][]float64, d) // reflector k stored over rows k..n-1

	for k := 0; k < d; k++ {
		// Build the reflector from column k, rows k..n-1.
		var normSq float64
		for i := k; i < n; i++ {
			v := work.At(i, k)
			normSq += v * v
		}
		norm := math.Sqrt(normSq)
		akk := work.At(k, k)
		if norm == 0 {
			taus[k] = 0
			vs[k] = make([]float64, n-k)
			continue
		}
		alpha := -norm
		if akk < 0 {
			alpha = norm
		}
		v := make([]float64, n-k)
		v[0] = akk - alpha
		for i := k + 1; i < n; i++ {
			v[i-k] = work.At(i, k)
		}
		var vnormSq float64
		for _, x := range v {
			vnormSq += x * x
		}
		if vnormSq == 0 {
			taus[k] = 0
			vs[k] = v
			continue
		}
		tau := 2 / vnormSq
		taus[k] = tau
		vs[k] = v
		// Apply H_k to the trailing columns of work.
		for j := k; j < d; j++ {
			var dot float64
			for i := k; i < n; i++ {
				dot += v[i-k] * work.At(i, j)
			}
			dot *= tau
			for i := k; i < n; i++ {
				work.Set(i, j, work.At(i, j)-dot*v[i-k])
			}
		}
	}

	r = NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}

	// Form Q explicitly: start from the n×d identity block and apply the
	// reflectors in reverse.
	q = NewMatrix(n, d)
	for j := 0; j < d; j++ {
		q.Set(j, j, 1)
	}
	for k := d - 1; k >= 0; k-- {
		tau := taus[k]
		if tau == 0 {
			continue
		}
		v := vs[k]
		for j := 0; j < d; j++ {
			var dot float64
			for i := k; i < n; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			dot *= tau
			for i := k; i < n; i++ {
				q.Set(i, j, q.At(i, j)-dot*v[i-k])
			}
		}
	}
	return q, r
}

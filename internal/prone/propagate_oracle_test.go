package prone

import (
	"math"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/sparse"
)

// propagateOracle is Propagate as it stood before the operator was built in
// one pass and the Chebyshev recurrence fused into the SpMM epilogue, moved
// here verbatim with the helpers it needs (the three-copy operator build
// through FromCOO, a fresh n×d per term, separate element-wise sweeps). The
// differentials in propagate_bits_test.go compare Propagate against it bit
// for bit; its SpMM and MatMul are the production kernels, which have their
// own oracles in sparse and dense.
func propagateOracle(g *graph.Graph, x *dense.Matrix, cfg PropagationConfig) *dense.Matrix {
	n := g.NumVertices()
	if cfg.Order <= 1 {
		return x.Clone()
	}
	// Ã = A + I; DA = row-normalized Ã; M = (I - DA) - μI.
	adj := adjacencyWithSelfLoops(g)
	rowSums := adj.RowSums()
	da := cloneCSROracle(adj)
	inv := make([]float64, n)
	for i, s := range rowSums {
		if s > 0 {
			inv[i] = 1 / s
		}
	}
	da.ScaleRows(inv)
	mmat := addScaledIdentityOracle(negateOracle(da), 1-cfg.Mu)

	d := x.Cols
	lx0 := x.Clone()
	lx1 := dense.NewMatrix(n, d)
	sparse.SpMM(lx1, mmat, x)
	tmp := dense.NewMatrix(n, d)
	sparse.SpMM(tmp, mmat, lx1)
	// Lx1 = 0.5·M·Lx1 - X
	par.ForRange(len(lx1.Data), elemGrain, func(lo, hi int) {
		out, t, x0 := lx1.Data[lo:hi], tmp.Data[lo:hi], x.Data[lo:hi]
		for i := range out {
			out[i] = 0.5*t[i] - x0[i]
		}
	})

	conv := lx0.Clone()
	conv.Scale(besselI(0, cfg.Theta))
	addScaledOracle(conv, lx1, -2*besselI(1, cfg.Theta))

	for i := 2; i < cfg.Order; i++ {
		lx2 := dense.NewMatrix(n, d)
		sparse.SpMM(lx2, mmat, lx1)
		sparse.SpMM(tmp, mmat, lx2)
		// Lx2 = (M·Lx2 - 2·Lx1) - Lx0   (Chebyshev three-term recurrence)
		par.ForRange(len(lx2.Data), elemGrain, func(lo, hi int) {
			out, t, l1, l0 := lx2.Data[lo:hi], tmp.Data[lo:hi], lx1.Data[lo:hi], lx0.Data[lo:hi]
			for k := range out {
				out[k] = t[k] - 2*l1[k] - l0[k]
			}
		})
		coeff := 2 * besselI(i, cfg.Theta)
		if i%2 == 1 {
			coeff = -coeff
		}
		addScaledOracle(conv, lx2, coeff)
		lx0, lx1 = lx1, lx2
	}

	// mm = Ã·(X - conv), then re-orthogonalize densely.
	diff := x.Clone()
	addScaledOracle(diff, conv, -1)
	mm := dense.NewMatrix(n, d)
	sparse.SpMM(mm, adj, diff)
	emb := redecomposeOracle(mm)
	if cfg.NormalizeRows {
		normalizeRows(emb)
	}
	return emb
}

func cloneCSROracle(m *sparse.CSR) *sparse.CSR {
	return &sparse.CSR{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]uint32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
}

func negateOracle(m *sparse.CSR) *sparse.CSR {
	out := cloneCSROracle(m)
	for p := range out.Val {
		out.Val[p] *= -1
	}
	return out
}

// addScaledIdentityOracle is the deleted sparse.(*CSR).AddScaledIdentity:
// M + c·I through a COO round trip, the identity entry appended after each
// row's own entries so FromCOO's stable merge adds it last.
func addScaledIdentityOracle(m *sparse.CSR, c float64) *sparse.CSR {
	n := m.NumRows
	us := make([]uint32, 0, m.NNZ()+int64(n))
	vs := make([]uint32, 0, m.NNZ()+int64(n))
	ws := make([]float64, 0, m.NNZ()+int64(n))
	for i := 0; i < n; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			us = append(us, uint32(i))
			vs = append(vs, m.ColIdx[p])
			ws = append(ws, m.Val[p])
		}
		us = append(us, uint32(i))
		vs = append(vs, uint32(i))
		ws = append(ws, c)
	}
	out, err := sparse.FromCOO(n, n, us, vs, ws)
	if err != nil {
		panic(err)
	}
	return out
}

func addScaledOracle(dst, src *dense.Matrix, c float64) {
	par.ForRange(len(dst.Data), elemGrain, func(lo, hi int) {
		d, s := dst.Data[lo:hi], src.Data[lo:hi]
		for i := range d {
			d[i] += c * s[i]
		}
	})
}

func redecomposeOracle(m *dense.Matrix) *dense.Matrix {
	q, r := dense.QR(m)
	ur, sigma, _ := dense.SVD(r)
	u := dense.NewMatrix(m.Rows, m.Cols)
	dense.MatMul(u, q, ur)
	roots := make([]float64, len(sigma))
	for j, s := range sigma {
		roots[j] = math.Sqrt(s)
	}
	par.For(u.Rows, 256, func(i int) {
		row := u.Row(i)
		for j := range row {
			row[j] *= roots[j]
		}
	})
	return u
}

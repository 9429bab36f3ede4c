package dense

import (
	"fmt"

	"lightne/internal/par"
)

// matMulOracle is the MatMul this package shipped before the 4-way
// row-accumulate kernel, moved here verbatim (ikj order, exact zeros of A
// skipped). MatMul's differential compares against it bit for bit.
func matMulOracle(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	par.For(a.Rows, 8, func(i int) {
		ci := c.Row(i)
		for j := range ci {
			ci[j] = 0
		}
		ai := a.Row(i)
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bkj := range bk {
				ci[j] += aik * bkj
			}
		}
	})
}

// matMulATBDetOracle is MatMulATBDet's block body before it moved onto the
// row-accumulate kernel, moved here verbatim: per block, for i ascending and
// k ascending, the row update acc[k][j] += a[i][k]·b[i][j] with exact zeros
// of A skipped, then the same CombineTree.
func matMulATBDetOracle(c, a, b *Matrix) {
	n, p, q := a.Rows, a.Cols, b.Cols
	if n == 0 || p == 0 || q == 0 {
		c.Zero()
		return
	}
	nb := atbDetBlocks
	if nb > n {
		nb = n
	}
	size := (n + nb - 1) / nb
	nb = (n + size - 1) / size
	partials := make([][]float64, nb)
	par.For(nb, 1, func(bi int) {
		lo := bi * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		acc := make([]float64, p*q)
		for i := lo; i < hi; i++ {
			ai, bi := a.Row(i), b.Row(i)
			for k, aik := range ai {
				if aik == 0 {
					continue
				}
				row := acc[k*q : (k+1)*q]
				for j, bij := range bi {
					row[j] += aik * bij
				}
			}
		}
		partials[bi] = acc
	})
	CombineTree(partials)
	copy(c.Data, partials[0])
}

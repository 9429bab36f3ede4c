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

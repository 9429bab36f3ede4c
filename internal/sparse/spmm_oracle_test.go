package sparse

import (
	"fmt"

	"lightne/internal/dense"
	"lightne/internal/par"
)

// spmmOracle is the SpMM this package shipped before the 4-way
// row-accumulate kernel, moved here verbatim: one load and one store of the
// output element per stored entry. It is the reference SpMM's differentials
// compare against bit for bit, and BenchmarkSpMMOracle's subject.
func spmmOracle(y *dense.Matrix, m *CSR, x *dense.Matrix) {
	if m.NumCols != x.Rows || y.Rows != m.NumRows || y.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: SpMM shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			m.NumRows, m.NumCols, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	par.For(m.NumRows, 16, func(i int) {
		yi := y.Row(i)
		for j := range yi {
			yi[j] = 0
		}
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			a := m.Val[p]
			xr := x.Row(int(m.ColIdx[p]))
			for j, xv := range xr {
				yi[j] += a * xv
			}
		}
	})
}

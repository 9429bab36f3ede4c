package prone

import (
	"fmt"

	"lightne/internal/dense"
	"lightne/internal/sparse"
)

// Filter selects the spectral modulator g(λ) applied by Propagate. The
// ProNE paper frames propagation as a general band-pass graph filter and
// evaluates a Chebyshev-expanded Gaussian; heat-kernel and personalized-
// PageRank filters are the other two standard members of that family, and
// LightNE inherits the choice. All filters share the final dense
// re-orthogonalization.
type Filter int

const (
	// FilterChebyshevGaussian is the ProNE band-pass filter (default).
	FilterChebyshevGaussian Filter = iota
	// FilterHeatKernel applies e^{-θ·L} via a truncated Taylor series:
	// a low-pass smoother that emphasizes local neighborhoods.
	FilterHeatKernel
	// FilterPPR applies the personalized-PageRank kernel
	// α·Σ_k (1-α)^k·(D⁻¹A)^k with α = 1 - Mu (Mu acts as the damping
	// factor), another standard low-pass choice.
	FilterPPR
)

// String names the filter.
func (f Filter) String() string {
	switch f {
	case FilterChebyshevGaussian:
		return "chebyshev-gaussian"
	case FilterHeatKernel:
		return "heat-kernel"
	case FilterPPR:
		return "ppr"
	}
	return fmt.Sprintf("filter(%d)", int(f))
}

// heatPropagate computes Σ_{k=0..order-1} (-θ·L)^k/k! · X, the truncated
// Taylor expansion of e^{-θL}X, on the self-loop-augmented normalized
// Laplacian L = I − D̃⁻¹Ã. Each term is one SpMM whose row epilogue scales
// the finished row by −θ/k and adds it to the sum. Returns the sum and a
// spare n×d buffer for the re-orthogonalization.
func heatPropagate(adj *sparse.CSR, x *dense.Matrix, cfg PropagationConfig) (sum, spare *dense.Matrix) {
	theta := cfg.Theta
	if theta <= 0 {
		theta = 0.5
	}
	sum = x.Clone()
	term, next := x.Clone(), dense.NewMatrix(x.Rows, x.Cols)
	var coef float64
	mul := sparse.Product{M: shiftedLaplacian(adj, invRowSums(adj, true), 1), RowDone: func(i int, yi []float64) {
		si := sum.Row(i)
		for j := range yi {
			yi[j] *= coef
			si[j] += yi[j]
		}
	}}
	for k := 1; k < cfg.Order; k++ {
		coef = -theta / float64(k)
		mul.Y, mul.X = next, term
		mul.Run()
		term, next = next, term
	}
	return sum, next
}

// pprPropagate computes α·Σ_{k=0..order-1} (1-α)^k·(DA)^k·X with DA the
// row-normalized self-loop-augmented adjacency (adj, normalized in place)
// and α = 1 - Mu. Returns the sum and a spare n×d buffer.
func pprPropagate(adj *sparse.CSR, x *dense.Matrix, cfg PropagationConfig) (sum, spare *dense.Matrix) {
	adj.ScaleRows(invRowSums(adj, true))
	alpha := 1 - cfg.Mu
	if alpha <= 0 || alpha > 1 {
		alpha = 0.85
	}
	damp := 1 - alpha
	sum = x.Clone()
	sum.Scale(alpha)
	term, next := x.Clone(), dense.NewMatrix(x.Rows, x.Cols)
	scale := alpha
	mul := sparse.Product{M: adj, RowDone: func(i int, yi []float64) {
		si := sum.Row(i)
		for j, v := range yi {
			si[j] += scale * v // scale = alpha·damp^k
		}
	}}
	for k := 1; k < cfg.Order; k++ {
		scale *= damp
		mul.Y, mul.X = next, term
		mul.Run()
		term, next = next, term
	}
	return sum, next
}

package eval

import (
	"fmt"
	"math"
	"sort"

	"lightne/internal/dense"
	"lightne/internal/par"
)

// Neighbor is one nearest-neighbor query result.
type Neighbor struct {
	Vertex int
	Cosine float64
}

// NearestNeighbors returns the k vertices most cosine-similar to vertex v
// in embedding x (excluding v itself), sorted by decreasing similarity —
// the item-recommendation query the paper's §1 deployments serve from
// embeddings. Brute force O(n·d); ties break toward lower vertex IDs.
func NearestNeighbors(x *dense.Matrix, v, k int) ([]Neighbor, error) {
	n := x.Rows
	if v < 0 || v >= n {
		return nil, fmt.Errorf("eval: vertex %d outside embedding with %d rows", v, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("eval: k must be positive, got %d", k)
	}
	norms := make([]float64, n)
	par.For(n, 1024, func(i int) {
		var s float64
		for _, val := range x.Row(i) {
			s += val * val
		}
		norms[i] = math.Sqrt(s)
	})
	sims := make([]float64, n)
	qv := x.Row(v)
	qn := norms[v]
	par.For(n, 256, func(i int) {
		if i == v || norms[i] == 0 || qn == 0 {
			sims[i] = math.Inf(-1)
			return
		}
		var s float64
		for j, val := range x.Row(i) {
			s += val * qv[j]
		}
		sims[i] = s / (norms[i] * qn)
	})
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if sims[idx[a]] != sims[idx[b]] {
			return sims[idx[a]] > sims[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > n-1 {
		k = n - 1
	}
	out := make([]Neighbor, 0, k)
	for _, i := range idx {
		if i == v || math.IsInf(sims[i], -1) {
			continue
		}
		out = append(out, Neighbor{Vertex: i, Cosine: sims[i]})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// ProcrustesDistance measures how similar two embeddings of the same
// vertex set are, up to the orthogonal rotation SVD-based methods are only
// defined modulo: it solves the orthogonal Procrustes problem
// min_R ‖A·R − B‖_F over rotations R (via the SVD of AᵀB) and returns the
// residual normalized by ‖B‖_F. 0 means identical up to rotation; values
// near √2 mean unrelated. Used to quantify drift between incremental and
// fully rebuilt embeddings.
func ProcrustesDistance(a, b *dense.Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("eval: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	d := a.Cols
	m := dense.NewMatrix(d, d)
	dense.MatMulATB(m, a, b)
	u, _, v := dense.SVD(m)
	// R = U·Vᵀ.
	r := dense.NewMatrix(d, d)
	dense.MatMul(r, u, v.Transpose())
	rotated := dense.NewMatrix(a.Rows, d)
	dense.MatMul(rotated, a, r)
	var num, den float64
	for i := range rotated.Data {
		diff := rotated.Data[i] - b.Data[i]
		num += diff * diff
		den += b.Data[i] * b.Data[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}

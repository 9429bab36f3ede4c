package netsmf

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/rng"
	"lightne/internal/sampler"
)

// exactNetMF computes trunc_log(vol/(bT)·Σ_{r=1..T}(D⁻¹A)^r·D⁻¹) densely.
func exactNetMF(g *graph.Graph, T int, b float64) *dense.Matrix {
	n := g.NumVertices()
	a := dense.NewMatrix(n, n)
	g.MapEdges(func(u, v uint32) { a.Set(int(u), int(v), 1) })
	deg := g.Degrees()
	p := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if deg[i] > 0 {
				p.Set(i, j, a.At(i, j)/deg[i])
			}
		}
	}
	sum := dense.NewMatrix(n, n)
	cur := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cur.Set(i, i, 1)
	}
	for r := 1; r <= T; r++ {
		next := dense.NewMatrix(n, n)
		dense.MatMul(next, cur, p)
		cur = next
		for i := range sum.Data {
			sum.Data[i] += cur.Data[i]
		}
	}
	vol := g.Volume()
	out := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := vol / (b * float64(T)) * sum.At(i, j) / deg[j]
			if v > 1 {
				out.Set(i, j, math.Log(v))
			}
		}
	}
	return out
}

func karate(t *testing.T) *graph.Graph {
	t.Helper()
	// A connected, irregular 20-vertex test graph: a ring plus chords.
	var arcs []graph.Edge
	n := 20
	for i := 0; i < n; i++ {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 1) % n)})
	}
	for i := 0; i < n; i += 3 {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 7) % n)})
	}
	g, err := graph.FromEdges(n, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSparsifierConvergesToNetMF(t *testing.T) {
	// With many samples and no downsampling, the estimate must converge to
	// the exact (trunc-logged) NetMF matrix in relative Frobenius norm.
	g := karate(t)
	for _, T := range []int{1, 3} {
		want := exactNetMF(g, T, 1)
		table, stats, err := sampler.Sample(g, sampler.Config{T: T, M: 3_000_000, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		rowPtr, cols, ws := table.DrainCSR(g.NumVertices())
		mat, err := BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
		if err != nil {
			t.Fatal(err)
		}
		var num, den float64
		n := g.NumVertices()
		got := dense.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for p := mat.RowPtr[i]; p < mat.RowPtr[i+1]; p++ {
				got.Set(i, int(mat.ColIdx[p]), mat.Val[p])
			}
		}
		for i := range want.Data {
			d := got.Data[i] - want.Data[i]
			num += d * d
			den += want.Data[i] * want.Data[i]
		}
		rel := math.Sqrt(num / den)
		if rel > 0.12 {
			t.Fatalf("T=%d: relative error %.3f too high", T, rel)
		}
	}
}

func TestDownsamplingPreservesEstimate(t *testing.T) {
	// Downsampled estimate must agree with the exact matrix too (Theorem
	// 3.1 unbiasedness), within a looser tolerance since variance is higher.
	g := karate(t)
	T := 2
	want := exactNetMF(g, T, 1)
	table, stats, err := sampler.Sample(g, sampler.Config{T: T, M: 3_000_000, Downsample: true, C: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, cols, ws := table.DrainCSR(g.NumVertices())
	mat, err := BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for p := mat.RowPtr[i]; p < mat.RowPtr[i+1]; p++ {
			row[mat.ColIdx[p]] = mat.Val[p]
		}
		for j := 0; j < n; j++ {
			d := row[j] - want.At(i, j)
			num += d * d
			den += want.At(i, j) * want.At(i, j)
		}
	}
	rel := math.Sqrt(num / den)
	if rel > 0.2 {
		t.Fatalf("relative error %.3f too high under downsampling", rel)
	}
}

func TestRunProducesEmbedding(t *testing.T) {
	g := karate(t)
	res, err := Run(g, Config{T: 3, M: 200_000, Dim: 8, Downsample: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumVertices() || res.Embedding.Cols != 8 {
		t.Fatalf("embedding shape %dx%d", res.Embedding.Rows, res.Embedding.Cols)
	}
	if res.SparsifierNNZ == 0 {
		t.Fatal("sparsifier empty")
	}
	for _, v := range res.Embedding.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("embedding contains NaN/Inf")
		}
	}
	if res.Timing.Sparsifier <= 0 || res.Timing.SVD <= 0 {
		t.Fatal("timings not recorded")
	}
	for i := 1; i < len(res.Sigma); i++ {
		if res.Sigma[i] > res.Sigma[i-1]+1e-9 {
			t.Fatal("sigma not sorted")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := karate(t)
	cfg := Config{T: 2, M: 50_000, Dim: 4, Seed: 9}
	a, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Embedding.Data {
		if a.Embedding.Data[i] != b.Embedding.Data[i] {
			t.Fatal("same config+seed produced different embeddings")
		}
	}
}

func TestMFromMultiple(t *testing.T) {
	g := karate(t)
	m := float64(g.NumEdges()) / 2
	if got := MFromMultiple(g, 10, 2); got != int64(2*10*m) {
		t.Fatalf("MFromMultiple=%d want %d", got, int64(2*10*m))
	}
	if got := MFromMultiple(g, 10, 0); got != 1 {
		t.Fatalf("zero multiple should clamp to 1, got %d", got)
	}
}

func TestRunErrors(t *testing.T) {
	g := karate(t)
	if _, err := Run(g, Config{T: 2, M: 100, Dim: 0}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := Run(g, Config{T: 0, M: 100, Dim: 4}); err == nil {
		t.Fatal("expected T error")
	}
}

func TestEmbeddingSeparatesCommunities(t *testing.T) {
	// Two dense clusters with a single bridge: within-cluster embedding
	// similarity should exceed cross-cluster similarity on average.
	var arcs []graph.Edge
	s := rng.New(5, 0)
	half := 15
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if s.Float64() < 0.6 {
					arcs = append(arcs, graph.Edge{U: uint32(base + i), V: uint32(base + j)})
				}
			}
		}
	}
	arcs = append(arcs, graph.Edge{U: 0, V: uint32(half)})
	g, err := graph.FromEdges(2*half, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{T: 5, M: 500_000, Dim: 8, Downsample: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	x := res.Embedding
	dot := func(i, j int) float64 {
		var s float64
		for k := 0; k < x.Cols; k++ {
			s += x.At(i, k) * x.At(j, k)
		}
		return s
	}
	var within, across float64
	var nw, na int
	for i := 0; i < 2*half; i++ {
		for j := i + 1; j < 2*half; j++ {
			if (i < half) == (j < half) {
				within += dot(i, j)
				nw++
			} else {
				across += dot(i, j)
				na++
			}
		}
	}
	if within/float64(nw) <= across/float64(na) {
		t.Fatalf("within-cluster similarity %.3f not above cross %.3f",
			within/float64(nw), across/float64(na))
	}
}

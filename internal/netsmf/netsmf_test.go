package netsmf

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/graph"
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
	g, err := graph.FromEdges(n, arcs)
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

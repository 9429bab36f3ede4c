package netsmf

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/sampler"
)

// exactWeightedNetMF computes trunc_log(vol/(bT)·Σ(D⁻¹A)^r·D⁻¹) densely for
// a weighted graph (D = weighted degrees, vol = total weight).
func exactWeightedNetMF(g *graph.Graph, T int, b float64) *dense.Matrix {
	n := g.NumVertices()
	a := dense.NewMatrix(n, n)
	for u := 0; u < n; u++ {
		d := g.Degree(uint32(u))
		for i := 0; i < d; i++ {
			a.Set(u, int(g.Neighbor(uint32(u), i)), g.EdgeWeight(uint32(u), i))
		}
	}
	deg := g.Strengths()
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

// weightedTestGraph builds an irregular weighted graph: a ring with
// heavy chords.
func weightedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	n := 16
	var arcs []graph.WeightedEdge
	for i := 0; i < n; i++ {
		arcs = append(arcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 1) % n), W: 1})
	}
	for i := 0; i < n; i += 4 {
		arcs = append(arcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 5) % n), W: 3})
	}
	g, err := graph.FromWeightedEdges(n, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightedSparsifierConvergesToWeightedNetMF(t *testing.T) {
	g := weightedTestGraph(t)
	T := 2
	want := exactWeightedNetMF(g, T, 1)
	table, stats, err := sampler.Sample(g, sampler.Config{T: T, M: 3_000_000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, cols, ws := table.DrainCSR(g.NumVertices())
	mat, err := BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var num, den float64
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
	if rel > 0.12 {
		t.Fatalf("weighted estimator relative error %.3f too high", rel)
	}
}

func TestWeightedDownsampledSparsifier(t *testing.T) {
	g := weightedTestGraph(t)
	T := 2
	want := exactWeightedNetMF(g, T, 1)
	table, stats, err := sampler.Sample(g, sampler.Config{T: T, M: 3_000_000, Downsample: true, C: 1, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, cols, ws := table.DrainCSR(g.NumVertices())
	mat, err := BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var num, den float64
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
		t.Fatalf("weighted downsampled estimator relative error %.3f too high", rel)
	}
	if stats.Heads >= stats.Trials {
		t.Fatal("downsampling skipped nothing on a weighted graph with hubs")
	}
}

func TestWeightedRunEndToEnd(t *testing.T) {
	g := weightedTestGraph(t)
	res, err := Run(g, Config{T: 3, M: 100_000, Dim: 4, Downsample: true, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumVertices() || res.Embedding.Cols != 4 {
		t.Fatal("bad shape")
	}
	for _, v := range res.Embedding.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in weighted embedding")
		}
	}
}

func TestIntegerWeightsMatchMultigraphEstimate(t *testing.T) {
	// A weight-2 edge must produce (in expectation) the same NetMF estimate
	// as two parallel unit edges: the dense targets coincide, so both
	// sampled estimates must converge to the same matrix.
	n := 8
	var warcs []graph.WeightedEdge
	for i := 0; i < n; i++ {
		warcs = append(warcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 1) % n), W: 2})
		warcs = append(warcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 2) % n), W: 1})
	}
	wg, err := graph.FromWeightedEdges(n, warcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := exactWeightedNetMF(wg, 2, 1)
	table, stats, err := sampler.Sample(wg, sampler.Config{T: 2, M: 2_000_000, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, cols, ws := table.DrainCSR(wg.NumVertices())
	mat, err := BuildMatrixCSR(wg, rowPtr, cols, ws, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for p := mat.RowPtr[i]; p < mat.RowPtr[i+1]; p++ {
			j := mat.ColIdx[p]
			if math.Abs(mat.Val[p]-want.At(i, int(j))) > 0.15*math.Max(0.5, want.At(i, int(j))) {
				t.Fatalf("entry (%d,%d): %g vs exact %g", i, j, mat.Val[p], want.At(i, int(j)))
			}
		}
	}
}

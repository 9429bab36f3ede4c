package netsmf

import (
	"fmt"
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
	"lightne/internal/svd"
)

// transformOracle is the formulation the row kernel replaced: scale a copy of
// the raw values in place, then sparse.CSR.TruncLog.
func transformOracle(g *graph.Graph, raw *sparse.CSR, b float64, trials int64) *sparse.CSR {
	vol, deg := g.Volume(), g.Strengths()
	scale := vol * vol / (2 * b * float64(trials))
	m := &sparse.CSR{NumRows: raw.NumRows, NumCols: raw.NumCols, RowPtr: raw.RowPtr, ColIdx: raw.ColIdx,
		Val: make([]float64, len(raw.Val))}
	for i := 0; i < raw.NumRows; i++ {
		for p := raw.RowPtr[i]; p < raw.RowPtr[i+1]; p++ {
			m.Val[p] = raw.Val[p] * scale / (deg[i] * deg[raw.ColIdx[p]])
		}
	}
	return m.TruncLog()
}

// hubGraph is randGraph plus a hub adjacent to every backbone vertex (one row
// far above the small chunk budgets) and ten isolated vertices (empty rows).
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	base := randGraph(t, 300, 2, 17)
	n := base.NumVertices()
	var arcs []graph.Edge
	for u := 0; u < n; u++ {
		for _, v := range base.Neighbors(uint32(u), nil) {
			if uint32(u) < v {
				arcs = append(arcs, graph.Edge{U: uint32(u), V: v})
			}
		}
		arcs = append(arcs, graph.Edge{U: uint32(u), V: uint32(n)})
	}
	g, err := graph.FromEdges(n+11, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTransformRowsChunkedBitIdentical is the differential for the one row
// kernel: for every chunk budget the concatenation of per-chunk outputs (one
// reused buffer, as the sketch ring reuses its two) is column- and
// Float64bits-equal to the single [0, n) call the rSVD path makes, which in
// turn equals the scale-then-TruncLog oracle; the raw drain is never written.
// See DESIGN.md "Numerics".
func TestTransformRowsChunkedBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  sampler.Config
	}{
		{"unweighted", hubGraph(t), sampler.Config{T: 4, M: 150_000, Downsample: true, Seed: 29}},
		{"weighted", weightedTestGraph(t), sampler.Config{T: 3, M: 100_000, Seed: 19}},
	} {
		raw, stats, err := rawSparsifier(tc.g, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := tc.g.NumVertices()
		var empty, widest int64
		for r := 0; r < n; r++ {
			if w := raw.RowPtr[r+1] - raw.RowPtr[r]; w == 0 {
				empty++
			} else if w > widest {
				widest = w
			}
		}
		if widest <= 7 || (tc.name == "unweighted" && empty == 0) {
			t.Fatalf("%s: fixture lacks a wide row (%d) or empty rows (%d)", tc.name, widest, empty)
		}
		rawVals := append([]float64(nil), raw.Val...)

		tr := NewTransform(tc.g, raw.RowPtr, raw.ColIdx, raw.Val, 1, stats.Trials)
		var whole svd.RowChunk
		tr.Rows(0, n, &whole)
		want := transformOracle(tc.g, raw, 1, stats.Trials)
		if whole.NNZ() == 0 || whole.NNZ() == raw.NNZ() {
			t.Fatalf("%s: trunc_log kept %d of %d entries; the fixture must prune some", tc.name, whole.NNZ(), raw.NNZ())
		}
		equal := func(label string, rowPtr []int64, cols []uint32, vals []float64) {
			t.Helper()
			if len(rowPtr) != n+1 || int64(len(cols)) != want.NNZ() {
				t.Fatalf("%s: %s has %d row pointers, %d entries; want %d, %d", tc.name, label, len(rowPtr), len(cols), n+1, want.NNZ())
			}
			for i := range rowPtr {
				if rowPtr[i] != want.RowPtr[i] {
					t.Fatalf("%s: %s rowPtr[%d] = %d, want %d", tc.name, label, i, rowPtr[i], want.RowPtr[i])
				}
			}
			for i := range cols {
				if cols[i] != want.ColIdx[i] || math.Float64bits(vals[i]) != math.Float64bits(want.Val[i]) {
					t.Fatalf("%s: %s entry %d = (%d, %v), want (%d, %v)", tc.name, label, i, cols[i], vals[i], want.ColIdx[i], want.Val[i])
				}
			}
		}
		equal("[0,n)", whole.RowPtr, whole.Cols, whole.Vals)

		for _, budget := range []int64{1, 7, 1 << 10, 1 << 20, math.MaxInt64} {
			rowPtr := make([]int64, 1, n+1)
			var cols []uint32
			var vals []float64
			var buf svd.RowChunk
			bounds := sampler.ChunkRows(raw.RowPtr, budget)
			for c := 0; c+1 < len(bounds); c++ {
				tr.Rows(bounds[c], bounds[c+1], &buf)
				if buf.RowLo != bounds[c] || buf.Rows() != bounds[c+1]-bounds[c] {
					t.Fatalf("%s: budget %d: chunk covers [%d,+%d), want [%d,%d)", tc.name, budget, buf.RowLo, buf.Rows(), bounds[c], bounds[c+1])
				}
				base := int64(len(cols))
				for _, p := range buf.RowPtr[1:] {
					rowPtr = append(rowPtr, base+p)
				}
				cols = append(cols, buf.Cols...)
				vals = append(vals, buf.Vals...)
			}
			equal(fmt.Sprintf("budget %d", budget), rowPtr, cols, vals)
		}
		for i, v := range rawVals {
			if math.Float64bits(raw.Val[i]) != math.Float64bits(v) {
				t.Fatalf("%s: the transform wrote raw value %d", tc.name, i)
			}
		}
	}
}

package netsmf

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lightne/internal/eval"
	"lightne/internal/graph"
	"lightne/internal/rng"
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
func TestTransformRowsChunkedBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"unweighted", hubGraph(t), Config{T: 4, M: 150_000, Downsample: true, Seed: 29}},
		{"weighted", weightedTestGraph(t), Config{T: 3, M: 100_000, Seed: 19}},
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

		tr := newTransform(tc.g, raw.RowPtr, raw.ColIdx, raw.Val, 1, stats.Trials)
		var whole svd.RowChunk
		tr.rows(0, n, &whole)
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
				tr.rows(bounds[c], bounds[c+1], &buf)
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

// TestStreamedNNZMatchesMaterialized pins the streamed path against the
// materializing one in aggregate: the chunks Run absorbs must hold exactly as
// many trunc-logged entries as BuildMatrixCSR keeps on the same drain.
func TestStreamedNNZMatchesMaterialized(t *testing.T) {
	g := randGraph(t, 400, 2, 11)
	cfg := Config{T: 4, M: 200_000, Downsample: true, Seed: 23, Dim: 8, Oversample: 8}

	raw, stats, err := rawSparsifier(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := BuildMatrixCSR(g, raw.RowPtr, raw.ColIdx, raw.Val, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.NNZ()

	cfg.StreamedSVD = true
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SparsifierNNZ != want {
		t.Fatalf("streamed kept %d entries, materialized trunc-log kept %d", res.SparsifierNNZ, want)
	}
	if res.SampleStats.Trials != stats.Trials {
		t.Fatalf("trials diverged: %d vs %d", res.SampleStats.Trials, stats.Trials)
	}
}

// communityGraph plants link-prediction structure a purely random graph
// lacks: dense blocks joined by a thin ring, so held-out intra-block edges
// are predictable from the embedding and AUC is informative.
func communityGraph(t *testing.T, blocks, per, chords int, seed uint64) *graph.Graph {
	t.Helper()
	s := rng.New(seed, 0)
	n := blocks * per
	var arcs []graph.Edge
	for b := 0; b < blocks; b++ {
		base := b * per
		for i := 0; i < per; i++ {
			arcs = append(arcs, graph.Edge{U: uint32(base + i), V: uint32(base + (i+1)%per)})
			for k := 0; k < chords; k++ {
				arcs = append(arcs, graph.Edge{U: uint32(base + i), V: uint32(base + s.Intn(per))})
			}
		}
		arcs = append(arcs, graph.Edge{U: uint32(base), V: uint32((base + per) % n)})
	}
	g, err := graph.FromEdges(n, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamedMatchesRSVDQuality is the differential quality test of the
// tentpole: on the same graph and seed, the single-pass sketched
// factorization must recover singular values close to the two-pass rSVD's
// and produce embeddings of equivalent downstream link-prediction quality,
// for both sketch kinds.
func TestStreamedMatchesRSVDQuality(t *testing.T) {
	full := communityGraph(t, 6, 80, 6, 31)
	train, test, err := eval.SplitEdges(full, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{T: 4, M: 400_000, Downsample: true, Seed: 51, Dim: 16, Oversample: 16}

	ref, err := Run(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refAUC := eval.AUC(ref.Embedding, test, 50, 9)
	if refAUC < 0.55 {
		t.Fatalf("rSVD baseline AUC degenerate: %g", refAUC)
	}

	for _, kind := range []struct {
		name string
		cfg  Config
	}{
		{"sign", cfg},
		{"gaussian", cfg},
	} {
		scfg := kind.cfg
		scfg.StreamedSVD = true
		if kind.name == "gaussian" {
			scfg.Sketch = svd.SketchGaussian
		}
		got, err := Run(train, scfg)
		if err != nil {
			t.Fatal(err)
		}
		// Leading singular values: same matrix, so the single-pass estimate
		// must track the two-pass one on the well-captured leading third.
		lead := len(ref.Sigma) / 3
		if lead < 2 {
			lead = 2
		}
		for j := 0; j < lead; j++ {
			if rel := math.Abs(got.Sigma[j]-ref.Sigma[j]) / ref.Sigma[0]; rel > 0.10 {
				t.Errorf("%s: sigma[%d] = %g vs rSVD %g (rel %g)", kind.name, j, got.Sigma[j], ref.Sigma[j], rel)
			}
		}
		auc := eval.AUC(got.Embedding, test, 50, 9)
		if math.Abs(auc-refAUC) > 0.08 {
			t.Errorf("%s: link-prediction AUC %g vs rSVD %g", kind.name, auc, refAUC)
		}
	}
}

// TestStreamedWeightedQuality runs the streamed path end to end on a weighted
// graph: weighted volume, strengths, and alias-walk sampling all feed the
// streamed transform, and the leading singular values must match the
// materializing path.
func TestStreamedWeightedQuality(t *testing.T) {
	g := weightedTestGraph(t)
	cfg := Config{T: 3, M: 500_000, Seed: 77, Dim: 4, Oversample: 12}

	ref, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamedSVD = true
	got, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if rel := math.Abs(got.Sigma[j]-ref.Sigma[j]) / ref.Sigma[0]; rel > 0.10 {
			t.Errorf("sigma[%d] = %g vs rSVD %g (rel %g)", j, got.Sigma[j], ref.Sigma[j], rel)
		}
	}
}

// TestStreamedGolden locks down the acceptance criterion of the tentpole:
// with a fixed seed the streamed embedding is bit-identical across worker
// counts, aggregation shard counts, and batched-walker wave sizes. The
// sparsifier multiset, the drain order, the chunk boundaries, the sketch
// accumulation, and every dense reduction in the factorization are all
// schedule-independent, so the full pipeline composes to a deterministic
// function of (graph, config).
func TestStreamedGolden(t *testing.T) {
	g := randGraph(t, 400, 2, 43)
	base := Config{
		T: 4, M: 150_000, Downsample: true, Seed: 13,
		Dim: 8, Oversample: 8, StreamedSVD: true, BatchedWalks: true,
	}

	build := func(shards, procs, wave int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := base
		cfg.Shards = shards
		cfg.WaveSize = wave
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SparsifierNNZ == 0 {
			t.Fatal("degenerate run: empty trunc-logged sparsifier")
		}
		return res
	}

	golden := build(1, 1, 4096)
	for _, shards := range []int{1, 4} {
		for _, procs := range []int{1, 4} {
			for _, wave := range []int{4096, 0} {
				if shards == 1 && procs == 1 && wave == 4096 {
					continue
				}
				t.Run(fmt.Sprintf("shards=%d/procs=%d/wave=%d", shards, procs, wave), func(t *testing.T) {
					got := build(shards, procs, wave)
					if got.SparsifierNNZ != golden.SparsifierNNZ {
						t.Fatalf("nnz %d, golden %d", got.SparsifierNNZ, golden.SparsifierNNZ)
					}
					for i := range golden.Sigma {
						if got.Sigma[i] != golden.Sigma[i] {
							t.Fatalf("sigma[%d] = %v, golden %v (must be bit-identical)", i, got.Sigma[i], golden.Sigma[i])
						}
					}
					for i := range golden.Embedding.Data {
						if got.Embedding.Data[i] != golden.Embedding.Data[i] {
							t.Fatalf("embedding[%d] = %v, golden %v (must be bit-identical)",
								i, got.Embedding.Data[i], golden.Embedding.Data[i])
						}
					}
				})
			}
		}
	}
}

// TestStreamedWeightedGolden extends the bit-identity contract to weighted
// graphs, which is what the deterministic volume reduction
// (par.ReduceFloat64Det behind graph.TotalWeight) buys: the estimator scale
// is now the same float for every worker count.
func TestStreamedWeightedGolden(t *testing.T) {
	g := weightedTestGraph(t)
	cfg := Config{T: 3, M: 100_000, Seed: 19, Dim: 4, StreamedSVD: true, BatchedWalks: true}

	build := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	golden := build(1)
	got := build(4)
	for i := range golden.Embedding.Data {
		if got.Embedding.Data[i] != golden.Embedding.Data[i] {
			t.Fatalf("embedding[%d] differs across worker counts", i)
		}
	}
}

package core

// The factorization-stage tests: each runs Embed with SkipPropagation, i.e.
// the sampling pass plus EmbedTable's build (trunc-log the upper triangle,
// mirror) → {rSVD | sketch}.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lightne/internal/eval"
	"lightne/internal/graph"
	"lightne/internal/netsmf"
	"lightne/internal/rng"
	"lightne/internal/sampler"
	"lightne/internal/svd"
)

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

// randGraph builds a connected-ish random graph: a cycle backbone plus
// extra random chords, deduplicated.
func randGraph(t *testing.T, n, extraPerVertex int, seed uint64) *graph.Graph {
	t.Helper()
	s := rng.New(seed, 0)
	seen := make(map[[2]uint32]bool)
	var arcs []graph.Edge
	add := func(u, v uint32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]uint32{u, v}] {
			return
		}
		seen[[2]uint32{u, v}] = true
		arcs = append(arcs, graph.Edge{U: u, V: v})
	}
	for i := 0; i < n; i++ {
		add(uint32(i), uint32((i+1)%n))
		for k := 0; k < extraPerVertex; k++ {
			add(uint32(i), uint32(s.Intn(n)))
		}
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
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
	g, err := graph.FromWeightedEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
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
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunProducesEmbedding(t *testing.T) {
	g := karate(t)
	res, err := Embed(g, Config{T: 3, M: 200_000, Dim: 8, Seed: 7, SkipPropagation: true})
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
	cfg := Config{T: 2, M: 50_000, Dim: 4, Seed: 9, NoDownsample: true, SkipPropagation: true}
	a, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Embedding.Data {
		if a.Embedding.Data[i] != b.Embedding.Data[i] {
			t.Fatal("same config+seed produced different embeddings")
		}
	}
}

func TestRunErrors(t *testing.T) {
	g := karate(t)
	if _, err := Embed(g, Config{T: 2, M: 100, Dim: 0, SkipPropagation: true}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := Embed(g, Config{T: 0, M: 100, Dim: 4, SkipPropagation: true}); err == nil {
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
	g, err := graph.FromEdges(2*half, arcs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Embed(g, Config{T: 5, M: 500_000, Dim: 8, Seed: 13, SkipPropagation: true})
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

func TestWeightedRunEndToEnd(t *testing.T) {
	g := weightedTestGraph(t)
	res, err := Embed(g, Config{T: 3, M: 100_000, Dim: 4, Seed: 45, SkipPropagation: true})
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

// TestStreamedNNZMatchesMaterialized pins the sketch path against the
// full drain in aggregate: the matrix EmbedTable absorbs must hold exactly
// as many trunc-logged entries as BuildMatrixCSR keeps on the same drain.
func TestStreamedNNZMatchesMaterialized(t *testing.T) {
	g := randGraph(t, 400, 2, 11)
	cfg := Config{T: 4, M: 200_000, Seed: 23, Dim: 8, Oversample: 8, SkipPropagation: true}

	table, stats, err := sampler.Sample(g, cfg.Sampler(g))
	if err != nil {
		t.Fatal(err)
	}
	rowPtr, cols, ws := table.DrainCSR(g.NumVertices())
	mat, err := netsmf.BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.NNZ()

	cfg.StreamedSVD = true
	res, err := Embed(g, cfg)
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

// TestEmbedTableBitIdenticalToDrainPath: EmbedTable, which builds the
// sparsifier from the pass's upper triangle, gives the embedding of the
// path it replaced, bit for bit, at GOMAXPROCS 1, 2 and 4: BuildMatrixCSR
// on the full drain, then the rSVD, or a sketch absorbing that matrix in
// whole-row chunks of at most 1 000 entries (sampler.ChunkRows), as the
// streamed path did.
func TestEmbedTableBitIdenticalToDrainPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := randGraph(t, 400, 2, 11)
	n := g.NumVertices()
	up, stats, err := sampler.Sample(g, sampler.Config{T: 4, M: 200_000, Downsample: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		rowPtr, cols, ws := up.DrainCSR(n)
		mat, err := netsmf.BuildMatrixCSR(g, rowPtr, cols, ws, 1, stats.Trials)
		if err != nil {
			t.Fatal(err)
		}
		for _, streamed := range []bool{false, true} {
			cfg := Config{T: 4, Seed: 23, Dim: 8, Oversample: 8, SkipPropagation: true, StreamedSVD: streamed}
			var want *svd.Result
			if streamed {
				sk, err := svd.NewSketch(n, cfg.Dim, svd.SketchOptions{Seed: cfg.Seed + 1, Oversample: cfg.Oversample})
				if err != nil {
					t.Fatal(err)
				}
				bounds := sampler.ChunkRows(mat.RowPtr, 1000)
				for c := 0; c+1 < len(bounds); c++ {
					lo, hi := bounds[c], bounds[c+1]
					local := make([]int64, hi-lo+1)
					for i := range local {
						local[i] = mat.RowPtr[lo+i] - mat.RowPtr[lo]
					}
					sk.Absorb(svd.RowChunk{RowLo: lo, RowPtr: local,
						Cols: mat.ColIdx[mat.RowPtr[lo]:mat.RowPtr[hi]], Vals: mat.Val[mat.RowPtr[lo]:mat.RowPtr[hi]]})
				}
				want, err = sk.Factorize()
			} else {
				want, err = svd.RandomizedSVD(mat, cfg.Dim, svd.Options{Seed: cfg.Seed + 1, Oversample: cfg.Oversample, Symmetric: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			wantX := svd.EmbedFromSVD(want)
			res, err := EmbedTable(g, up, stats.Trials, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.SparsifierNNZ != mat.NNZ() {
				t.Fatalf("procs=%d streamed=%v: EmbedTable kept %d entries, the drain build %d", procs, streamed, res.SparsifierNNZ, mat.NNZ())
			}
			for i, w := range wantX.Data {
				if got := res.Embedding.Data[i]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("procs=%d streamed=%v: element %d = %v, drain path %v", procs, streamed, i, got, w)
				}
			}
		}
	}
}

// TestStreamedMatchesRSVDQuality is the differential quality test of the
// single-pass factorizer: on the same graph and seed, the sketched
// factorization must recover singular values close to the two-pass rSVD's
// and produce embeddings of equivalent downstream link-prediction quality,
// for both sketch kinds.
func TestStreamedMatchesRSVDQuality(t *testing.T) {
	full := communityGraph(t, 6, 80, 6, 31)
	train, test, err := eval.SplitEdges(full, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{T: 4, M: 400_000, Seed: 51, Dim: 16, Oversample: 16, SkipPropagation: true}

	ref, err := Embed(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refAUC := eval.AUC(ref.Embedding, test, 50, 9)
	if refAUC < 0.55 {
		t.Fatalf("rSVD baseline AUC degenerate: %g", refAUC)
	}

	for _, kind := range []struct {
		name string
		kind svd.SketchKind
	}{
		{"sign", svd.SketchSparseSign},
		{"gaussian", svd.SketchGaussian},
	} {
		scfg := cfg
		scfg.StreamedSVD, scfg.Sketch = true, kind.kind
		got, err := Embed(train, scfg)
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
	cfg := Config{T: 3, M: 500_000, Seed: 77, Dim: 4, Oversample: 12, NoDownsample: true, SkipPropagation: true}

	ref, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamedSVD = true
	got, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if rel := math.Abs(got.Sigma[j]-ref.Sigma[j]) / ref.Sigma[0]; rel > 0.10 {
			t.Errorf("sigma[%d] = %g vs rSVD %g (rel %g)", j, got.Sigma[j], ref.Sigma[j], rel)
		}
	}
}

// TestStreamedGolden: with a fixed seed the streamed embedding is
// bit-identical across worker counts, aggregation shard counts, and
// batched-walker wave sizes. The sparsifier multiset, the grouping order,
// the build's blocks, the sketch accumulation, and every dense reduction in
// the factorization are all schedule-independent, so the full pipeline
// composes to a deterministic function of (graph, config). See DESIGN.md
// "Numerics".
func TestStreamedGolden(t *testing.T) {
	g := randGraph(t, 400, 2, 43)
	base := Config{
		T: 4, M: 150_000, Seed: 13, Dim: 8, Oversample: 8,
		StreamedSVD: true, BatchedWalks: true, SkipPropagation: true,
	}

	build := func(shards, procs, wave int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := base
		cfg.Shards = shards
		cfg.WaveSize = wave
		res, err := Embed(g, cfg)
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
// is the same float for every worker count. See DESIGN.md "Numerics".
func TestStreamedWeightedGolden(t *testing.T) {
	g := weightedTestGraph(t)
	cfg := Config{T: 3, M: 100_000, Seed: 19, Dim: 4, NoDownsample: true,
		StreamedSVD: true, BatchedWalks: true, SkipPropagation: true}

	build := func(procs int) *Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Embed(g, cfg)
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

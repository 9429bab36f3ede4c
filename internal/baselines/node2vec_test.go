package baselines

import (
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

func TestHasEdge(t *testing.T) {
	g := clusters(t, 6, 1.0, 9) // two complete K6 blocks + bridge
	if !hasEdge(g, 0, 1) {
		t.Fatal("edge (0,1) missing")
	}
	if hasEdge(g, 1, 7) {
		t.Fatal("cross-cluster edge (1,7) should not exist")
	}
	if hasEdge(g, 0, 0) {
		t.Fatal("no self loops")
	}
}

func TestNode2VecStepBiases(t *testing.T) {
	// Path graph 0-1-2 plus triangle edge 0-2: from cur=1 with prev=0,
	// candidate 0 has bias 1/p (return), candidate 2 has bias 1 (neighbor
	// of prev thanks to edge 0-2). With p huge, returns become rare.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3, 0)
	returns := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		nxt, ok := node2vecStep(g, 0, 1, 100, 1, src)
		if !ok {
			t.Fatal("step failed")
		}
		if nxt == 0 {
			returns++
		}
	}
	// Expected return rate ≈ (1/100)/(1/100 + 1) ≈ 0.0099.
	if rate := float64(returns) / draws; rate > 0.03 {
		t.Fatalf("return rate %.4f too high for p=100", rate)
	}
	// With p tiny, returns dominate.
	returns = 0
	for i := 0; i < draws; i++ {
		nxt, _ := node2vecStep(g, 0, 1, 0.01, 1, src)
		if nxt == 0 {
			returns++
		}
	}
	if rate := float64(returns) / draws; rate < 0.9 {
		t.Fatalf("return rate %.4f too low for p=0.01", rate)
	}
}

func TestNode2VecSeparatesClusters(t *testing.T) {
	g := clusters(t, 15, 0.6, 11)
	cfg := DefaultNode2Vec(8)
	cfg.WalksPerNode = 5
	cfg.WalkLength = 20
	cfg.Seed = 13
	x, err := Node2Vec(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 30 || x.Cols != 8 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in node2vec embedding")
		}
	}
	if sep := clusterSeparation(x, 30, 15, 8); sep < 0.1 {
		t.Fatalf("node2vec separation %.3f too weak", sep)
	}
}

func TestNode2VecErrors(t *testing.T) {
	g := clusters(t, 5, 0.9, 5)
	if _, err := Node2Vec(g, Node2VecConfig{Dim: 0, P: 1, Q: 1}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := Node2Vec(g, Node2VecConfig{Dim: 4, P: 0, Q: 1}); err == nil {
		t.Fatal("expected p error")
	}
	empty, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultNode2Vec(4)
	if _, err := Node2Vec(empty, cfg); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

package graph

import (
	"math"
	"testing"

	"lightne/internal/rng"
)

func weightedTriangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromWeightedEdges(3, []WeightedEdge{
		{0, 1, 1}, {1, 2, 2}, {2, 0, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightedBasics(t *testing.T) {
	g := weightedTriangle(t)
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if g.NumEdges() != 6 {
		t.Fatalf("arcs=%d", g.NumEdges())
	}
	// Strengths: s0 = 1+3 = 4, s1 = 1+2 = 3, s2 = 2+3 = 5.
	want := []float64{4, 3, 5}
	s := g.Strengths()
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-12 {
			t.Fatalf("strength[%d]=%g want %g", i, s[i], w)
		}
		if math.Abs(g.Strength(uint32(i))-w) > 1e-12 {
			t.Fatalf("Strength(%d) mismatch", i)
		}
	}
	if math.Abs(g.TotalWeight()-12) > 1e-12 {
		t.Fatalf("TotalWeight=%g want 12", g.TotalWeight())
	}
	if g.Volume() != g.TotalWeight() {
		t.Fatal("Volume must equal TotalWeight for weighted graphs")
	}
}

func TestWeightedDuplicateMerging(t *testing.T) {
	g, err := FromWeightedEdges(2, []WeightedEdge{
		{0, 1, 1}, {0, 1, 2.5}, {1, 0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetrize produces (0,1) with 1+2.5+0.5 = 4 in each direction.
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d %d", g.Degree(0), g.Degree(1))
	}
	if math.Abs(g.EdgeWeight(0, 0)-4) > 1e-12 {
		t.Fatalf("merged weight %g want 4", g.EdgeWeight(0, 0))
	}
}

func TestWeightedErrors(t *testing.T) {
	if _, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, 0}}); err == nil {
		t.Fatal("expected non-positive weight error")
	}
	if _, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, -1}}); err == nil {
		t.Fatal("expected negative weight error")
	}
	if _, err := FromWeightedEdges(1, []WeightedEdge{{0, 5, 1}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	wg, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wg.ToCompressed(0); err == nil {
		t.Fatal("expected compression rejection")
	}
}

func TestWeightedRandomNeighborDistribution(t *testing.T) {
	// Star from center 0 with weights 1, 2, 7: draws must follow weights.
	g, err := FromWeightedEdges(4, []WeightedEdge{
		{0, 1, 1}, {0, 2, 2}, {0, 3, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5, 0)
	counts := make([]int, 4)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v, ok := g.RandomNeighbor(0, r)
		if !ok {
			t.Fatal("center is not isolated")
		}
		counts[v]++
	}
	wantP := []float64{0, 0.1, 0.2, 0.7}
	for v := 1; v < 4; v++ {
		got := float64(counts[v]) / draws
		if math.Abs(got-wantP[v]) > 0.01 {
			t.Fatalf("neighbor %d frequency %.3f want %.3f", v, got, wantP[v])
		}
	}
}

func TestAliasTableExactMatch(t *testing.T) {
	// The alias table must reproduce exact weight proportions for many
	// random weight vectors: verify by accumulating acceptance masses.
	s := rng.New(11, 0)
	for trial := 0; trial < 20; trial++ {
		d := 1 + s.Intn(20)
		arcs := make([]WeightedEdge, d)
		var total float64
		for i := range arcs {
			w := 0.1 + 5*s.Float64()
			arcs[i] = WeightedEdge{0, uint32(i + 1), w}
			total += w
		}
		g, err := FromWeightedEdges(d+1, arcs)
		if err != nil {
			t.Fatal(err)
		}
		// Analytic draw probability per slot: (1/d)·(prob_i + Σ_j alias_j→i (1-prob_j)).
		lo, hi := g.offsets[0], g.offsets[1]
		mass := make([]float64, d)
		for i := 0; i < d; i++ {
			mass[i] += g.alias.prob[lo+int64(i)]
			if g.alias.prob[lo+int64(i)] < 1 {
				mass[g.alias.alias[lo+int64(i)]] += 1 - g.alias.prob[lo+int64(i)]
			}
		}
		_ = hi
		for i := 0; i < d; i++ {
			got := mass[i] / float64(d)
			want := g.weights[lo+int64(i)] / total
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d slot %d: alias mass %.6f want %.6f", trial, i, got, want)
			}
		}
	}
}

func TestUnweightedEdgeWeightIsOne(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("unweighted graph reports Weighted")
	}
	if g.EdgeWeight(0, 0) != 1 {
		t.Fatal("unweighted EdgeWeight must be 1")
	}
	s := g.Strengths()
	d := g.Degrees()
	for i := range s {
		if s[i] != d[i] {
			t.Fatal("Strengths must equal Degrees when unweighted")
		}
	}
}

func TestWeightedWalkPrefersHeavyEdges(t *testing.T) {
	// Path 0-1-2 where (1,2) is 9x heavier than (1,0): a 1-step walk from 1
	// should land on 2 ~90% of the time.
	g, err := FromWeightedEdges(3, []WeightedEdge{
		{0, 1, 1}, {1, 2, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13, 0)
	hit2 := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if g.Walk(1, 1, r) == 2 {
			hit2++
		}
	}
	if p := float64(hit2) / draws; math.Abs(p-0.9) > 0.01 {
		t.Fatalf("heavy edge taken %.3f want 0.9", p)
	}
}

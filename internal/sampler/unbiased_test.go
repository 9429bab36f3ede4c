package sampler

import (
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// TestDownsamplingLaplacianUnbiased verifies Theorem 3.1 empirically: the
// reweighted downsampled edge set is an unbiased estimator of the graph
// Laplacian. We check it entry-wise on the degree (diagonal) via the total
// per-edge weight: for every edge e, E[kept·(1/p_e)] = 1, so averaging over
// many independent trials the estimated weight of each edge converges to 1.
func TestDownsamplingLaplacianUnbiased(t *testing.T) {
	// An irregular graph so the p_e values differ across edges.
	var arcs []graph.Edge
	n := 40
	// A hub connected to everything plus a sparse ring.
	for i := 1; i < n; i++ {
		arcs = append(arcs, graph.Edge{U: 0, V: uint32(i)})
	}
	for i := 1; i < n-1; i++ {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32(i + 1)})
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	c := 1.0 // small constant so that p_e < 1 for hub edges
	const rounds = 4000
	src := rng.New(99, 0)
	// estimate[e] accumulates kept/p_e per round for a few probe edges.
	probes := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 20}, {U: 5, V: 6}}
	sums := make([]float64, len(probes))
	for r := 0; r < rounds; r++ {
		for i, e := range probes {
			pe := Prob(c, g.Degree(e.U), g.Degree(e.V))
			if pe >= 1 {
				sums[i]++
				continue
			}
			if src.Bernoulli(pe) {
				sums[i] += 1 / pe
			}
		}
	}
	for i, e := range probes {
		mean := sums[i] / rounds
		if math.Abs(mean-1) > 0.1 {
			t.Fatalf("edge (%d,%d): E[kept/p] = %.3f, want 1 (Theorem 3.1)", e.U, e.V, mean)
		}
	}
}

// TestDownsamplingLaplacianUnbiasedWeighted extends the Theorem 3.1 check
// to weighted graphs: with p_e = ProbW(c, w_e, s_u, s_v) over weighted
// degrees, the reweighted kept indicator still satisfies E[kept·(1/p_e)] = 1
// per arc — the property that makes the weighted sparsifier an unbiased
// Laplacian estimator.
func TestDownsamplingLaplacianUnbiasedWeighted(t *testing.T) {
	// A weighted hub-plus-ring: hub arcs carry skewed weights so strengths
	// (weighted degrees) differ sharply from counts, and p_e spans a wide
	// range below 1.
	var arcs []graph.WeightedEdge
	n := 40
	for i := 1; i < n; i++ {
		arcs = append(arcs, graph.WeightedEdge{U: 0, V: uint32(i), W: float64(1+i%5) * 0.5})
	}
	for i := 1; i < n-1; i++ {
		arcs = append(arcs, graph.WeightedEdge{U: uint32(i), V: uint32(i + 1), W: 2})
	}
	g, err := graph.FromWeightedEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	strengths := g.Strengths()
	c := 0.5 // small constant so that p_e < 1 on the probes
	const rounds = 4000
	src := rng.New(99, 0)
	type probe struct {
		u uint32
		i int // edge index within u's adjacency
	}
	probes := []probe{{0, 0}, {0, 19}, {5, 1}}
	sums := make([]float64, len(probes))
	for r := 0; r < rounds; r++ {
		for i, p := range probes {
			v := g.Neighbor(p.u, p.i)
			pe := ProbW(c, g.EdgeWeight(p.u, p.i), strengths[p.u], strengths[v])
			if pe >= 1 {
				sums[i]++
				continue
			}
			if src.Bernoulli(pe) {
				sums[i] += 1 / pe
			}
		}
	}
	for i, p := range probes {
		mean := sums[i] / rounds
		if math.Abs(mean-1) > 0.1 {
			t.Fatalf("arc (%d, #%d): E[kept/p] = %.3f, want 1 (Theorem 3.1, weighted)", p.u, p.i, mean)
		}
	}
}

// TestDownsamplingProbabilityBounds verifies the Theorem 3.2 sandwich: the
// degree quantity (1/du + 1/dv) used for p_e is a genuine upper bound of
// effective resistance on a graph where resistance is computable by hand:
// on an n-cycle, R(u,v) for adjacent vertices is (n-1)/n < 1 = 1/2+1/2.
func TestDownsamplingProbabilityBounds(t *testing.T) {
	n := 10
	resistanceAdjacent := float64(n-1) / float64(n) // series/parallel by hand
	degreeBound := 1.0/2 + 1.0/2                    // du = dv = 2 on a cycle
	if resistanceAdjacent > degreeBound {
		t.Fatalf("R=%g exceeds degree bound %g", resistanceAdjacent, degreeBound)
	}
	lower := 0.5 * degreeBound
	if resistanceAdjacent < lower {
		t.Fatalf("R=%g below lower sandwich %g", resistanceAdjacent, lower)
	}
}

// TestSampleExpectedWeightPerEdgeMatchesNoDownsample: accumulate tables with
// and without downsampling on the same graph and budget; total weights must
// agree within sampling noise (the unbiasedness that makes the sparsifier a
// drop-in replacement).
func TestSampleExpectedWeightPerEdgeMatchesNoDownsample(t *testing.T) {
	g := completeGraph(t, 30)
	m := int64(400000)
	sum := func(down bool) float64 {
		sink, _, err := Sample(g, Config{T: 3, M: m, Downsample: down, C: 1.5, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tab := groupedTable(g, sink)
		_, _, ws := tab.Drain()
		var s float64
		for _, w := range ws {
			s += w
		}
		return s
	}
	with := sum(true)
	without := sum(false)
	if math.Abs(with-without) > 0.05*without {
		t.Fatalf("downsampled mass %.0f vs plain %.0f differ beyond noise", with, without)
	}
}

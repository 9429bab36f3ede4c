package sampler

import (
	"math"
	"slices"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// TestArcSamplersUniform: sampleUniform's arc-array draws are uniform over
// the directed arcs of an irregular graph (star + ring), and every draw is a
// real arc.
func TestArcSamplersUniform(t *testing.T) {
	var arcs []graph.Edge
	n := 20
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
	m := int(g.NumEdges())
	us, vs := arcArray(g)
	if len(us) != m {
		t.Fatalf("arc array holds %d arcs, graph %d", len(us), m)
	}
	src := rng.New(3, 0)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		a := src.Intn(len(us))
		u, v := us[a], vs[a]
		if !slices.Contains(g.Neighbors(u, nil), v) {
			t.Fatalf("(%d,%d) is not an arc", u, v)
		}
		counts[uint64(u)<<32|uint64(v)]++
	}
	want := float64(draws) / float64(m)
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("arc %d drawn %d times, want ≈ %.0f", k, c, want)
		}
	}
	if len(counts) != m {
		t.Fatalf("only %d/%d arcs ever drawn", len(counts), m)
	}
}

func TestSampleUniformMatchesPerEdgeDistribution(t *testing.T) {
	// The per-edge schedule (Sample) and the textbook uniform-arc process
	// (sampleUniform) are distribution-equivalent: their aggregated tables
	// must agree entry-wise up to sampling noise.
	g := completeGraph(t, 16)
	cfg := Config{T: 3, M: 1_500_000, Seed: 9}
	perEdgeSink, statsA, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := groupedTable(g, perEdgeSink)
	uniform, statsB, err := sampleUniform(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(statsA.Trials)-float64(statsB.Trials)) > 0.05*float64(cfg.M) {
		t.Fatalf("trial counts diverge: %d vs %d", statsA.Trials, statsB.Trials)
	}
	us, vs, ws := perEdge.Drain()
	for i := range us {
		if ws[i] < 50 {
			continue // skip entries too rare to compare statistically
		}
		wb, ok := uniform.Get(us[i], vs[i])
		if !ok {
			t.Fatalf("uniform table missing well-sampled entry (%d,%d)", us[i], vs[i])
		}
		if math.Abs(wb-ws[i]) > 0.25*ws[i] {
			t.Fatalf("entry (%d,%d): per-edge %g vs uniform %g", us[i], vs[i], ws[i], wb)
		}
	}
}

func TestSampleUniformDownsampling(t *testing.T) {
	g := completeGraph(t, 40)
	tab, stats, err := sampleUniform(g, Config{T: 2, M: 100_000, Downsample: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Heads >= stats.Trials {
		t.Fatal("downsampling skipped nothing on K40")
	}
	if tab.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestSampleUniformErrors(t *testing.T) {
	g := completeGraph(t, 5)
	if _, _, err := sampleUniform(g, Config{T: 0, M: 10}); err == nil {
		t.Fatal("expected T error")
	}
	if _, _, err := sampleUniform(g, Config{T: 2, M: 0}); err == nil {
		t.Fatal("expected M error")
	}
	wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sampleUniform(wg, Config{T: 2, M: 10}); err == nil {
		t.Fatal("expected weighted-graph rejection")
	}
}

package sampler

import (
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// cycleGraph returns an n-cycle.
func cycleGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	arcs := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		arcs[i] = graph.Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// completeGraph returns K_n.
func completeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var arcs []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32(j)})
		}
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPathSampleEndpointsValid(t *testing.T) {
	g := cycleGraph(t, 10)
	src := rng.New(1, 0)
	for r := 1; r <= 10; r++ {
		for trial := 0; trial < 200; trial++ {
			u, v := PathSample(g, 0, 1, r, src)
			if int(u) >= 10 || int(v) >= 10 {
				t.Fatalf("endpoint out of range: (%d,%d)", u, v)
			}
		}
	}
}

func TestPathSampleParityOnCycle(t *testing.T) {
	// On an even cycle (bipartite), an r-step path sample starting from arc
	// (u, u+1) must end at vertices whose index-parities differ by r-1 steps
	// total: parity(u')+parity(v') == parity(u)+parity(v)+r-1 (mod 2).
	g := cycleGraph(t, 12)
	src := rng.New(2, 0)
	for r := 1; r <= 6; r++ {
		for trial := 0; trial < 100; trial++ {
			u, v := PathSample(g, 3, 4, r, src)
			got := (int(u) + int(v)) % 2
			want := (3 + 4 + r - 1) % 2
			if got != want {
				t.Fatalf("r=%d: parity %d want %d (endpoints %d,%d)", r, got, want, u, v)
			}
		}
	}
}

func TestProb(t *testing.T) {
	if p := Prob(1, 2, 2); p != 1 {
		t.Fatalf("Prob capped: %g", p)
	}
	if p := Prob(1, 10, 10); math.Abs(p-0.2) > 1e-12 {
		t.Fatalf("Prob(1,10,10)=%g want 0.2", p)
	}
}

func TestSampleTrialCountConcentrates(t *testing.T) {
	g := completeGraph(t, 30)
	m := int64(50000)
	_, stats, err := Sample(g, Config{T: 5, M: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(stats.Trials-m)) > 0.05*float64(m) {
		t.Fatalf("trials %d far from target %d", stats.Trials, m)
	}
	if stats.Heads != stats.Trials {
		t.Fatalf("without downsampling heads %d != trials %d", stats.Heads, stats.Trials)
	}
}

func TestSampleDownsamplingReducesHeads(t *testing.T) {
	// K_40 has degree 39 everywhere; with C = log(40) ≈ 3.7,
	// p_e ≈ 3.7 * 2/39 ≈ 0.19, so heads should be a small fraction.
	g := completeGraph(t, 40)
	m := int64(100000)
	_, stats, err := Sample(g, Config{T: 5, M: m, Downsample: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(stats.Heads) / float64(stats.Trials)
	wantP := Prob(math.Log(40), 39, 39)
	if math.Abs(frac-wantP) > 0.05 {
		t.Fatalf("heads fraction %.3f want ≈ %.3f", frac, wantP)
	}
}

func TestSampleTableSymmetric(t *testing.T) {
	g := completeGraph(t, 12)
	sink, _, err := Sample(g, Config{T: 3, M: 20000, Downsample: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	us, vs, _ := tab.Drain()
	for i := range us {
		wa, _ := tab.Get(us[i], vs[i])
		wb, ok := tab.Get(vs[i], us[i])
		if !ok {
			t.Fatalf("missing mirror of (%d,%d)", us[i], vs[i])
		}
		if math.Abs(wa-wb) > 1e-6 {
			t.Fatalf("asymmetric weights (%d,%d): %g vs %g", us[i], vs[i], wa, wb)
		}
	}
}

func TestSampleTotalWeightUnbiased(t *testing.T) {
	// Each trial contributes expected weight 1 per orientation (heads add
	// 1/p_e with probability p_e), so total table weight ≈ 2·Trials.
	g := completeGraph(t, 25)
	sink, stats, err := Sample(g, Config{T: 4, M: 200000, Downsample: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	_, _, ws := tab.Drain()
	var total float64
	for _, w := range ws {
		total += w
	}
	want := 2 * float64(stats.Trials)
	if math.Abs(total-want) > 0.05*want {
		t.Fatalf("total weight %.0f want ≈ %.0f", total, want)
	}
}

func TestSampleT1IsEdgeDistribution(t *testing.T) {
	// With T = 1, r is always 1, s = 0: samples are the original arcs.
	g := cycleGraph(t, 8)
	sink, _, err := Sample(g, Config{T: 1, M: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	us, vs, _ := tab.Drain()
	for i := range us {
		diff := (int(us[i]) - int(vs[i]) + 8) % 8
		if diff != 1 && diff != 7 {
			t.Fatalf("T=1 sample (%d,%d) not an original edge", us[i], vs[i])
		}
	}
}

// TestSampleDeterministic: the same seed gives the same sample, run to run —
// the first clause of the determinism contract (DESIGN.md "Numerics").
func TestSampleDeterministic(t *testing.T) {
	g := completeGraph(t, 15)
	cfg := Config{T: 4, M: 30000, Downsample: true, Seed: 11}
	t1Sink, s1, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1 := groupedTable(g, t1Sink)
	t2Sink, s2, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2 := groupedTable(g, t2Sink)
	if s1.Trials != s2.Trials || s1.Heads != s2.Heads || s1.DistinctEntries != s2.DistinctEntries {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	us, vs, ws := t1.Drain()
	for i := range us {
		w2, ok := t2.Get(us[i], vs[i])
		if !ok || math.Abs(w2-ws[i]) > 1e-9 {
			t.Fatalf("entry (%d,%d) differs between identical runs", us[i], vs[i])
		}
	}
}

func TestSampleErrors(t *testing.T) {
	g := cycleGraph(t, 4)
	if _, _, err := Sample(g, Config{T: 0, M: 10}); err == nil {
		t.Fatal("expected T error")
	}
	if _, _, err := Sample(g, Config{T: 2, M: 0}); err == nil {
		t.Fatal("expected M error")
	}
	empty, err := graph.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sample(empty, Config{T: 2, M: 10}); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

func TestDownsampledKeepsExpectedEdgeBudget(t *testing.T) {
	// The scheme keeps O(nC) edges in expectation: Σ_arcs p_e ≤ 2nC. Verify
	// heads stay within that budget for a dense graph where it bites.
	g := completeGraph(t, 60)
	m := g.NumEdges() // one trial per arc on average
	_, stats, err := Sample(g, Config{T: 1, M: m, Downsample: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c := math.Log(60)
	bound := 2 * 60 * c * 1.3 // 30% slack for randomness
	if float64(stats.Heads) > bound {
		t.Fatalf("heads %d exceed O(nC) bound %.0f", stats.Heads, bound)
	}
}

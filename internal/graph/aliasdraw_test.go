package graph

import (
	"math"
	"runtime"
	"testing"

	"lightne/internal/rng"
)

// Tests for the keyed alias draw (NeighborCursor.AliasNeighbor /
// aliasPick) and the scratch-based alias construction: a chi-square
// goodness-of-fit harness over keyed-hash draws, a fuzzer pitting
// buildAlias against the naive normalized-weight reference, and an
// allocation regression for the per-worker scratch.

// aliasDraw resolves one keyed draw at u through a NeighborCursor, as the
// batched walker does.
func aliasDraw(g *Graph, u uint32, draw uint64) uint32 {
	c := g.NewNeighborCursor()
	c.Begin(u, 1)
	return c.AliasNeighbor(draw)
}

// chiSquareCrit01 returns the upper 0.01 critical value of the chi-square
// distribution with df degrees of freedom via the Wilson–Hilferty cube
// approximation (z_{0.99} = 2.326).
func chiSquareCrit01(df int) float64 {
	const z = 2.326
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// TestAliasNeighborChiSquare: draws resolved from single keyed-hash values
// (slot from the high bits via multiply-shift, coin from the low 32 bits)
// must follow the edge weights. Pearson's chi-square against the normalized
// weights must accept at p > 0.01 for each profile. Profiles keep every
// expected cell count comfortably large so the chi-square approximation is
// valid; extreme dynamic ranges are covered analytically by FuzzAliasBuild.
func TestAliasNeighborChiSquare(t *testing.T) {
	profiles := [][]float64{
		{1, 1, 1, 1},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{0.5, 1, 2, 4, 8, 16},
		{1, 1 + 1e-9, 1 - 1e-9},
		{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 30},
	}
	const draws = 100_000
	for pi, weights := range profiles {
		arcs := make([]WeightedEdge, len(weights))
		var total float64
		for i, w := range weights {
			arcs[i] = WeightedEdge{U: 0, V: uint32(i + 1), W: w}
			total += w
		}
		g, err := FromWeightedEdges(len(weights)+1, arcs)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, len(weights)+1)
		for k := 0; k < draws; k++ {
			v := aliasDraw(g, 0, rng.Hash64(uint64(pi)*7919+3, uint64(k)))
			if v == 0 || int(v) > len(weights) {
				t.Fatalf("profile %d: draw returned non-neighbor %d", pi, v)
			}
			counts[v]++
		}
		var chi2 float64
		for i, w := range weights {
			exp := float64(draws) * w / total
			d := float64(counts[i+1]) - exp
			chi2 += d * d / exp
		}
		if crit := chiSquareCrit01(len(weights) - 1); chi2 > crit {
			t.Fatalf("profile %d: chi-square %.2f exceeds 0.01 critical value %.2f (df=%d, counts=%v)",
				pi, chi2, crit, len(weights)-1, counts[1:])
		}
	}
}

// TestAliasNeighborEdgeCases pins the degenerate shape: a single-edge
// vertex always returns its only neighbor, whatever the draw.
func TestAliasNeighborEdgeCases(t *testing.T) {
	g, err := FromWeightedEdges(3, []WeightedEdge{{U: 0, V: 1, W: 42}})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		draw := rng.Hash64(17, k)
		if v := aliasDraw(g, 0, draw); v != 1 {
			t.Fatalf("single-edge vertex: got %d", v)
		}
		if v := aliasDraw(g, 1, draw); v != 0 {
			t.Fatalf("its neighbor's single edge: got %d", v)
		}
	}
}

// FuzzAliasBuild pits buildAlias against the naive reference: for any
// positive weight vector, the implied per-slot draw probability
// (prob_i + Σ_{j: alias_j = i} (1 − prob_j)) / d must equal w_i / Σw to
// float tolerance, every alias entry must stay in range, and keyed draws
// must never index out of bounds. Weights decode from byte pairs with a
// wide exponent range (2^-20 .. 2^20) so tiny/huge/near-equal mixtures,
// single edges, and hub-sized rows all appear.
func FuzzAliasBuild(f *testing.F) {
	f.Add([]byte{0, 20})                      // single edge, weight 1
	f.Add([]byte{0, 0, 0, 40, 128, 20})       // tiny + huge + mid
	f.Add([]byte{1, 20, 1, 20, 2, 20, 1, 20}) // near-equal
	f.Add([]byte{255, 40, 255, 40, 0, 0})     // two huge + one tiny
	hub := make([]byte, 128)                  // 64-slot hub, varied
	for i := range hub {
		hub[i] = byte(i * 37)
	}
	f.Add(hub)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := len(data) / 2
		if d == 0 {
			return
		}
		if d > 256 {
			d = 256
		}
		arcs := make([]WeightedEdge, d)
		var total float64
		for i := 0; i < d; i++ {
			mant := 1 + float64(data[2*i])/256
			exp := int(data[2*i+1]%41) - 20
			w := math.Ldexp(mant, exp)
			arcs[i] = WeightedEdge{U: 0, V: uint32(i + 1), W: w}
			total += w
		}
		g, err := FromWeightedEdges(d+1, arcs)
		if err != nil {
			t.Fatal(err)
		}
		lo := g.offsets[0]
		prob := g.alias.prob[lo : lo+int64(d)]
		alias := g.alias.alias[lo : lo+int64(d)]
		mass := make([]float64, d)
		for i := 0; i < d; i++ {
			if prob[i] < 0 || prob[i] > 1 {
				t.Fatalf("slot %d: prob %g out of [0,1]", i, prob[i])
			}
			mass[i] += prob[i]
			if prob[i] < 1 {
				if int(alias[i]) >= d {
					t.Fatalf("slot %d: alias %d out of range (d=%d)", i, alias[i], d)
				}
				mass[alias[i]] += 1 - prob[i]
			}
		}
		for i := 0; i < d; i++ {
			got := mass[i] / float64(d)
			want := g.weights[lo+int64(i)] / total
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("slot %d: implied draw probability %g, reference %g (d=%d)", i, got, want, d)
			}
		}
		// Keyed draws must always land on a stored neighbor.
		for k := uint64(0); k < 32; k++ {
			if v := aliasDraw(g, 0, rng.Hash64(1, k)); v == 0 || int(v) > d {
				t.Fatalf("draw %d: got %d", k, v)
			}
		}
	})
}

// TestBuildAliasAllocs is the regression test for the per-worker scratch:
// alias construction must allocate a small constant number of times — the
// output tables plus one scratch set per worker — independent of vertex
// count. Run single-threaded so par.WorkerFor stays inline and the count is
// deterministic.
func TestBuildAliasAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	build := func(n int) *Graph {
		s := rng.New(7, 0)
		arcs := make([]WeightedEdge, 0, 3*n)
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				v := uint32(s.Intn(n))
				if v == uint32(i) {
					continue
				}
				arcs = append(arcs, WeightedEdge{U: uint32(i), V: v, W: 1 + s.Float64()})
			}
		}
		g, err := FromWeightedEdges(n, arcs)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(10, func() { g.buildAlias() })
	}
	small, large := allocs(build(100)), allocs(build(4000))
	if small != large {
		t.Fatalf("buildAlias allocations scale with graph size: %v (n=100) vs %v (n=4000)", small, large)
	}
	if small > 16 {
		t.Fatalf("buildAlias allocates %v times per call, want a small constant", small)
	}
}

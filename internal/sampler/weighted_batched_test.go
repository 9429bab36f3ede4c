package sampler

import (
	"fmt"
	"math"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/par"
)

// Weighted batched walking: differential tests against the serial weighted
// Sample path and a chi-square goodness-of-fit harness for the keyed alias
// draws inside the wave walker.

// chiSquareCrit01 returns the upper 0.01 critical value of the chi-square
// distribution with df degrees of freedom via the Wilson–Hilferty cube
// approximation (z_{0.99} = 2.326): df·(1 − 2/(9df) + z·√(2/(9df)))³.
func chiSquareCrit01(df int) float64 {
	const z = 2.326
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// weightedStar builds a hub (vertex 0) with one leaf per weight, symmetrized
// so walks can leave and re-enter the hub.
func weightedStar(t testing.TB, weights []float64) *graph.Graph {
	t.Helper()
	arcs := make([]graph.WeightedEdge, len(weights))
	for i, w := range weights {
		arcs[i] = graph.WeightedEdge{U: 0, V: uint32(i + 1), W: w}
	}
	g, err := graph.FromWeightedEdges(len(weights)+1, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSampleBatchedWeightedT1ExactDifferential is the exact differential
// check the tentpole promises: at T = 1 the serial Sample path and the
// batched pipeline consume IDENTICAL per-vertex draw streams on weighted
// graphs — the same per-arc budget coins (⌊M·w_e/vol⌋ + Bernoulli(frac)),
// the same downsampling coins (ProbW over strengths), the same r and s
// draws, and zero walk draws (both remaining step counts are 0) — so the
// per-arc realized trial mass, the head set, and the drained aggregate must
// all be bit-identical, with and without downsampling.
func TestSampleBatchedWeightedT1ExactDifferential(t *testing.T) {
	g := weightedChordGraph(t, 120, 2, 7)
	n := g.NumVertices()
	for _, ds := range []bool{false, true} {
		cfg := Config{T: 1, M: 30_000, Downsample: ds, Seed: 5}
		plain, sa, err := Sample(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batched, sb, err := SampleBatched(g, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Trials != sb.Trials || sa.Heads != sb.Heads {
			t.Fatalf("downsample=%v: accounting differs: serial %d/%d vs batched %d/%d",
				ds, sa.Trials, sa.Heads, sb.Trials, sb.Heads)
		}
		pPtr, pCols, pWs := plain.DrainCSR(n)
		bPtr, bCols, bWs := batched.DrainCSR(n)
		if len(pCols) == 0 {
			t.Fatalf("downsample=%v: serial run produced an empty sparsifier", ds)
		}
		if len(pPtr) != len(bPtr) || len(pCols) != len(bCols) {
			t.Fatalf("downsample=%v: shape (%d,%d) vs (%d,%d)",
				ds, len(pPtr), len(pCols), len(bPtr), len(bCols))
		}
		for i := range pPtr {
			if pPtr[i] != bPtr[i] {
				t.Fatalf("downsample=%v: rowPtr[%d] = %d vs %d", ds, i, pPtr[i], bPtr[i])
			}
		}
		for i := range pCols {
			if pCols[i] != bCols[i] || pWs[i] != bWs[i] {
				t.Fatalf("downsample=%v: entry %d: (%d, %v) vs (%d, %v) — must be bit-identical",
					ds, i, pCols[i], pWs[i], bCols[i], bWs[i])
			}
		}
	}
}

// TestSampleBatchedWeightedExactAccounting extends the exact trial-mass
// equality to T > 1: with integer weights and M a multiple of vol(G), every
// arc's budget ⌊M·w_e/vol⌋ is exact (zero fractional coin) and without
// downsampling no coins are drawn at all, so Trials and Heads must equal
// the serial path's even though walk draws differ by design. Heavy
// aggregate entries then agree distributionally (estimates of the same
// expectation).
func TestSampleBatchedWeightedExactAccounting(t *testing.T) {
	var arcs []graph.WeightedEdge
	const n = 24
	for i := 0; i < n; i++ {
		arcs = append(arcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 1) % n), W: float64(1 + i%4)})
		arcs = append(arcs, graph.WeightedEdge{U: uint32(i), V: uint32((i + 7) % n), W: float64(1 + (i*3)%8)})
	}
	g, err := graph.FromWeightedEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	vol := int64(g.TotalWeight())
	if float64(vol) != g.TotalWeight() {
		t.Fatalf("fixture volume %g is not integral", g.TotalWeight())
	}
	cfg := Config{T: 4, M: 900 * vol, Seed: 21}
	plainSink, sa, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := groupedTable(g, plainSink)
	sink, sb, err := SampleBatched(g, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	batched := groupedTable(g, sink)
	if sa.Trials != sb.Trials || sa.Heads != sb.Heads {
		t.Fatalf("accounting differs: serial %d/%d vs batched %d/%d",
			sa.Trials, sa.Heads, sb.Trials, sb.Heads)
	}
	if sa.Trials != cfg.M {
		t.Fatalf("frac-free budget should realize exactly M=%d trials, got %d", cfg.M, sa.Trials)
	}
	us, vs, ws := plain.Drain()
	for i := range us {
		if ws[i] < 400 {
			continue
		}
		wb, ok := batched.Get(us[i], vs[i])
		if !ok {
			t.Fatalf("batched table missing heavy entry (%d,%d)", us[i], vs[i])
		}
		if math.Abs(wb-ws[i]) > 0.25*ws[i] {
			t.Fatalf("entry (%d,%d): serial %g vs batched %g", us[i], vs[i], ws[i], wb)
		}
	}
}

// TestRunWaveWeightedChiSquare is the goodness-of-fit harness for keyed
// alias draws in the wave walker itself: every head takes exactly one
// weighted step from a skewed star's hub, so the endpoint histogram is
// N independent single draws from the hub's alias table, each resolved
// from one rng.Hash64 keyed by (head, side, step). Pearson's chi-square
// against the normalized weights must accept at p > 0.01.
func TestRunWaveWeightedChiSquare(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 10, 25, 0.5, 1.5}
	g := weightedStar(t, weights)
	const N = 200_000
	wave := make([]headRec, N)
	for i := range wave {
		// side 0 starts at the hub with 1 step to take; side 1 finishes
		// immediately (0 steps) and stays parked at the hub.
		wave[i] = headRec{fixed: 1, e0: 0, e1: 0, s0: 1, s1: 0}
	}
	states := make([]uint64, 2*N)
	scratch := make([]uint64, 2*N)
	cursors := make([]graph.NeighborCursor, par.Workers())
	for i := range cursors {
		cursors[i] = g.NewNeighborCursor()
	}
	runWave(g, wave, states, scratch, cursors, 12345, 0)

	counts := make([]int64, len(weights)+1)
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, h := range wave {
		if h.e1 != 0 {
			t.Fatalf("head %d: zero-step side moved to %d", i, h.e1)
		}
		if h.e0 == 0 || int(h.e0) > len(weights) {
			t.Fatalf("head %d: one-step endpoint %d is not a leaf", i, h.e0)
		}
		counts[h.e0]++
	}
	var chi2 float64
	for i, w := range weights {
		exp := float64(N) * w / total
		d := float64(counts[i+1]) - exp
		chi2 += d * d / exp
	}
	crit := chiSquareCrit01(len(weights) - 1)
	if chi2 > crit {
		var obs string
		for i := range weights {
			obs += fmt.Sprintf(" leaf%d=%d", i+1, counts[i+1])
		}
		t.Fatalf("chi-square %.2f exceeds 0.01 critical value %.2f (df=%d):%s",
			chi2, crit, len(weights)-1, obs)
	}
}

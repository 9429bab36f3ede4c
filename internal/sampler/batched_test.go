package sampler

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// chordGraph builds a connected random graph: a cycle backbone plus extra
// random chords, deduplicated — degree-skewed enough to exercise the
// enumeration's block geometry.
func chordGraph(t testing.TB, n, extraPerVertex int, seed uint64) *graph.Graph {
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

// weightedChordGraph is chordGraph's weighted twin: same topology process,
// with deterministic per-edge weights spanning a ~20x range so alias tables
// are far from uniform.
func weightedChordGraph(t testing.TB, n, extraPerVertex int, seed uint64) *graph.Graph {
	t.Helper()
	s := rng.New(seed, 0)
	seen := make(map[[2]uint32]bool)
	var arcs []graph.WeightedEdge
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
		arcs = append(arcs, graph.WeightedEdge{U: u, V: v, W: 0.25 + 4.75*s.Float64()})
	}
	for i := 0; i < n; i++ {
		add(uint32(i), uint32((i+1)%n))
		for k := 0; k < extraPerVertex; k++ {
			add(uint32(i), uint32(s.Intn(n)))
		}
	}
	g, err := graph.FromWeightedEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPackStateRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		cur   uint32
		steps int
		side  int
		head  int
	}{
		{0, 0, 0, 0},
		{12345, 511, 1, MaxWaveHeads - 1},
		{1 << 31, 7, 0, 42},
	} {
		st := packState(tc.cur, tc.steps, tc.side, tc.head)
		if uint32(st>>batchCurOff) != tc.cur {
			t.Fatalf("cur mismatch: %+v", tc)
		}
		if int(st>>batchStepOff)&(1<<batchStepBits-1) != tc.steps {
			t.Fatalf("steps mismatch: %+v", tc)
		}
		if int(st>>batchSideBit)&1 != tc.side {
			t.Fatalf("side mismatch: %+v", tc)
		}
		if int(st&(MaxWaveHeads-1)) != tc.head {
			t.Fatalf("head mismatch: %+v", tc)
		}
	}
}

func TestSampleBatchedMatchesSampleDistribution(t *testing.T) {
	g := completeGraph(t, 16)
	cfg := Config{T: 3, M: 1_500_000, Seed: 9}
	plainSink, statsA, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := groupedTable(g, plainSink)
	sink, statsB, err := SampleBatched(g, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	batched := groupedTable(g, sink)
	// Identical arc enumeration seeds → identical trial/head counts.
	if statsA.Trials != statsB.Trials || statsA.Heads != statsB.Heads {
		t.Fatalf("trial accounting differs: %d/%d vs %d/%d",
			statsA.Trials, statsA.Heads, statsB.Trials, statsB.Heads)
	}
	us, vs, ws := plain.Drain()
	for i := range us {
		if ws[i] < 50 {
			continue
		}
		wb, ok := batched.Get(us[i], vs[i])
		if !ok {
			t.Fatalf("batched table missing entry (%d,%d)", us[i], vs[i])
		}
		if math.Abs(wb-ws[i]) > 0.25*ws[i] {
			t.Fatalf("entry (%d,%d): plain %g vs batched %g", us[i], vs[i], ws[i], wb)
		}
	}
}

func TestSampleBatchedSmallWaves(t *testing.T) {
	// Tiny waves force many flushes; totals must be conserved exactly.
	g := cycleGraph(t, 12)
	cfg := Config{T: 4, M: 50_000, Downsample: true, C: 1, Seed: 11}
	sink, stats, err := SampleBatched(g, cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	_, _, ws := tab.Drain()
	var total float64
	for _, w := range ws {
		total += w
	}
	// Each head adds 2·(1/p_e); expectation of the sum is 2·Trials.
	want := 2 * float64(stats.Trials)
	if math.Abs(total-want) > 0.05*want {
		t.Fatalf("total mass %.0f want ≈ %.0f", total, want)
	}
}

func TestSampleBatchedSymmetric(t *testing.T) {
	g := completeGraph(t, 10)
	sink, _, err := SampleBatched(g, Config{T: 3, M: 40_000, Seed: 13}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	us, vs, _ := tab.Drain()
	for i := range us {
		wa, _ := tab.Get(us[i], vs[i])
		wb, ok := tab.Get(vs[i], us[i])
		if !ok || math.Abs(wa-wb) > 1e-6 {
			t.Fatalf("asymmetry at (%d,%d)", us[i], vs[i])
		}
	}
}

func TestSampleBatchedErrors(t *testing.T) {
	g := cycleGraph(t, 6)
	if _, _, err := SampleBatched(g, Config{T: 0, M: 10}, 0); err == nil {
		t.Fatal("expected T error")
	}
	if _, _, err := SampleBatched(g, Config{T: 600, M: 10}, 0); err == nil {
		t.Fatal("expected T cap error")
	}
	if _, _, err := SampleBatched(g, Config{T: 2, M: 0}, 0); err == nil {
		t.Fatal("expected M error")
	}
	// Weighted graphs are accepted: the wave walker resolves alias tables
	// from the same keyed draws (this rejection used to be the last gap).
	wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sink, stats, err := SampleBatched(wg, Config{T: 2, M: 10, Seed: 1}, 0)
	if err != nil {
		t.Fatalf("weighted batched walking: %v", err)
	}
	if stats.Trials == 0 || groupedTable(wg, sink).Len() == 0 {
		t.Fatal("weighted batched run produced nothing")
	}
}

func TestSampleBatchedParityOnCycle(t *testing.T) {
	// Path-parity invariant must survive the batched schedule (endpoints of
	// an (r-1)-step split walk on a bipartite cycle keep the sample's
	// parity): with T=1, samples are exactly the original arcs.
	g := cycleGraph(t, 8)
	sink, _, err := SampleBatched(g, Config{T: 1, M: 20_000, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := groupedTable(g, sink)
	us, vs, _ := tab.Drain()
	for i := range us {
		diff := (int(us[i]) - int(vs[i]) + 8) % 8
		if diff != 1 && diff != 7 {
			t.Fatalf("T=1 batched sample (%d,%d) is not an original edge", us[i], vs[i])
		}
	}
}

// TestSampleBatchedGoldenAcrossGeometry locks down the pipeline's central
// determinism guarantee: the drained sparsifier input is a pure function of
// (graph structure, config) — bit-identical across wave size, shard count,
// worker count, AND adjacency representation (raw CSR vs parallel-byte
// compressed at any block size). Per-vertex enumeration streams plus
// per-(head, side, step) walk streams make every draw independent of the
// execution geometry, and the wave-local cursor decode only changes how a
// neighbor is fetched, never which one. It pins the shards × procs × wave
// size × representation clauses of the determinism contract (DESIGN.md
// "Numerics") for the batched sampler.
func TestSampleBatchedGoldenAcrossGeometry(t *testing.T) {
	g := chordGraph(t, 300, 3, 42)
	cfg := Config{T: 6, M: 120_000, Downsample: true, Seed: 99}
	n := g.NumVertices()
	// Compressed twins: block size 2 keeps most runs on the lazy per-block
	// cursor path, the default block size (64 > max degree here) forces the
	// full-decode path. Both must reproduce the raw graph's bits.
	gc2, err := g.ToCompressed(2)
	if err != nil {
		t.Fatal(err)
	}
	gcDef, err := g.ToCompressed(0)
	if err != nil {
		t.Fatal(err)
	}
	build := func(gr *graph.Graph, waveSize, shards, procs int) ([]int64, []uint32, []float64) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		c := cfg
		c.Shards = shards
		tab, _, err := SampleBatched(gr, c, waveSize)
		if err != nil {
			t.Fatalf("wave=%d shards=%d procs=%d: %v", waveSize, shards, procs, err)
		}
		rowPtr, cols, ws := tab.DrainCSR(n)
		return rowPtr, cols, ws
	}
	compare := func(name string, rowPtr, goldPtr []int64, cols, goldCols []uint32, ws, goldWs []float64) {
		if len(rowPtr) != len(goldPtr) || len(cols) != len(goldCols) {
			t.Fatalf("%s: shape (%d,%d) differs from golden (%d,%d)",
				name, len(rowPtr), len(cols), len(goldPtr), len(goldCols))
		}
		for i := range rowPtr {
			if rowPtr[i] != goldPtr[i] {
				t.Fatalf("%s: rowPtr[%d] = %d, golden %d", name, i, rowPtr[i], goldPtr[i])
			}
		}
		for i := range cols {
			if cols[i] != goldCols[i] {
				t.Fatalf("%s: cols[%d] = %d, golden %d", name, i, cols[i], goldCols[i])
			}
			if ws[i] != goldWs[i] {
				t.Fatalf("%s: ws[%d] = %v, golden %v (must be bit-identical)",
					name, i, ws[i], goldWs[i])
			}
		}
	}
	goldPtr, goldCols, goldWs := build(g, 0, 1, 1)
	if len(goldCols) == 0 {
		t.Fatal("golden run produced an empty sparsifier")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"raw", g}, {"compressed-bs2", gc2}, {"compressed-default", gcDef}}
	for _, gv := range graphs {
		for _, waveSize := range []int{0, 1024, 4097} {
			for _, shards := range []int{1, 4} {
				for _, procs := range []int{1, 4} {
					if gv.g == g && waveSize == 0 && shards == 1 && procs == 1 {
						continue
					}
					name := fmt.Sprintf("%s/wave=%d/shards=%d/procs=%d", gv.name, waveSize, shards, procs)
					rowPtr, cols, ws := build(gv.g, waveSize, shards, procs)
					compare(name, rowPtr, goldPtr, cols, goldCols, ws, goldWs)
				}
			}
		}
	}

	// Weighted fixture: keyed alias draws must deliver the same guarantee.
	// No compressed twins (weighted graphs reject compression); the sweep is
	// the same waveSize × shards × procs grid against a weighted golden.
	wg := weightedChordGraph(t, 300, 3, 43)
	wGoldPtr, wGoldCols, wGoldWs := build(wg, 0, 1, 1)
	if len(wGoldCols) == 0 {
		t.Fatal("weighted golden run produced an empty sparsifier")
	}
	for _, waveSize := range []int{0, 1024, 4097} {
		for _, shards := range []int{1, 4} {
			for _, procs := range []int{1, 4} {
				if waveSize == 0 && shards == 1 && procs == 1 {
					continue
				}
				name := fmt.Sprintf("weighted/wave=%d/shards=%d/procs=%d", waveSize, shards, procs)
				rowPtr, cols, ws := build(wg, waveSize, shards, procs)
				compare(name, rowPtr, wGoldPtr, cols, wGoldCols, ws, wGoldWs)
			}
		}
	}
}

// TestSampleBatchedMatchesSerialFlush compares the pipeline against the
// retained pre-pipeline implementation: enumeration draws are identical
// (exact Trials/Heads equality), total inserted mass is conserved exactly,
// and heavy entries agree distributionally (walk streams differ by design,
// so per-entry weights are estimates of the same expectation).
func TestSampleBatchedMatchesSerialFlush(t *testing.T) {
	g := chordGraph(t, 200, 2, 17)
	cfg := Config{T: 5, M: 150_000, Downsample: true, Seed: 31}
	serialTab, serialStats, err := SampleBatchedSerial(g, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipeSink, pipeStats, err := SampleBatched(g, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipeTab := groupedTable(g, pipeSink)
	if serialStats.Trials != pipeStats.Trials || serialStats.Heads != pipeStats.Heads {
		t.Fatalf("enumeration accounting differs: serial %d/%d vs pipeline %d/%d",
			serialStats.Trials, serialStats.Heads, pipeStats.Trials, pipeStats.Heads)
	}
	sum := func(tab *csrView) float64 {
		_, _, ws := tab.Drain()
		var s float64
		for _, w := range ws {
			s += w
		}
		return s
	}
	sSum, pSum := sum(serialTab), sum(pipeTab)
	// Both insert exactly the same multiset of 1/p_e weights (twice per head);
	// fixed-point accumulation is exact, so the totals match to fixed-point
	// resolution regardless of walk endpoints.
	if math.Abs(sSum-pSum) > 1e-6*(1+sSum) {
		t.Fatalf("total mass differs: serial %.9g vs pipeline %.9g", sSum, pSum)
	}
	us, vs, ws := serialTab.Drain()
	heavy, agree := 0, 0
	for i := range us {
		if ws[i] < 60 {
			continue
		}
		heavy++
		wp, ok := pipeTab.Get(us[i], vs[i])
		if ok && math.Abs(wp-ws[i]) <= 0.3*ws[i] {
			agree++
		}
	}
	if heavy > 0 && agree < heavy*9/10 {
		t.Fatalf("heavy entries disagree: %d/%d within 30%%", agree, heavy)
	}
}

// TestSampleBatchedStressGrowMidDrain runs many small waves (256 heads)
// on four workers, on an unweighted and a weighted graph, with 1 or 4
// shards, which the batched pass, holding no table, must ignore. Under -race it
// covers the waves' walks and the parallel grouping; in any mode it checks
// conservation and that the grouping's reported peak covers its scatter
// beside the grouped arrays.
func TestSampleBatchedStressGrowMidDrain(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fixtures := []struct {
		name string
		g    *graph.Graph
	}{
		{"unweighted", chordGraph(t, 150, 2, 5)},
		{"weighted", weightedChordGraph(t, 150, 2, 5)},
	}
	for _, fx := range fixtures {
		for _, shards := range []int{1, 4} {
			cfg := Config{T: 4, M: 60_000, Downsample: true, Seed: 3, Shards: shards}
			sink, stats, err := SampleBatched(fx.g, cfg, 256)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", fx.name, shards, err)
			}
			tab := groupedTable(fx.g, sink)
			if tab.Len() == 0 || stats.Heads == 0 {
				t.Fatalf("%s shards=%d: empty run", fx.name, shards)
			}
			if stats.PeakTableBytes <= stats.TableBytes {
				t.Fatalf("%s shards=%d: peak %d does not exceed the grouped arrays' %d",
					fx.name, shards, stats.PeakTableBytes, stats.TableBytes)
			}
			_, _, ws := tab.Drain()
			var total float64
			for _, w := range ws {
				total += w
			}
			want := 2 * float64(stats.Trials)
			if math.Abs(total-want) > 0.05*want {
				t.Fatalf("%s shards=%d: total mass %.0f want ~%.0f", fx.name, shards, total, want)
			}
		}
	}
}

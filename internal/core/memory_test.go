package core

import (
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/prone"
	"lightne/internal/sampler"
	"lightne/internal/svd"
)

func TestEstimateMemoryBracketsReality(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 1500, Communities: 6, PIn: 0.05, POut: 0.003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(16)
	cfg.T = 5
	cfg.SampleMultiple = 2
	cfg.Seed = 3
	est, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same cfg the planner priced, so the run draws est.Trials trials.
	cfg.SkipPropagation = true
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heads prediction within 10% (it is an expectation, not a bound).
	gotHeads := float64(res.SampleStats.Heads)
	if gotHeads < 0.9*float64(est.ExpectedHeads) || gotHeads > 1.1*float64(est.ExpectedHeads) {
		t.Fatalf("heads %d outside 10%% of estimate %d", res.SampleStats.Heads, est.ExpectedHeads)
	}
	// Table bytes: estimate must be an upper bound within a small factor.
	if res.SampleStats.TableBytes > est.TableBytes {
		t.Fatalf("realized table %d exceeds estimate %d", res.SampleStats.TableBytes, est.TableBytes)
	}
	if est.TableBytes > 8*res.SampleStats.TableBytes {
		t.Fatalf("estimate %d too loose vs realized %d", est.TableBytes, res.SampleStats.TableBytes)
	}
	if est.Total() <= 0 || est.GraphBytes <= 0 || est.DenseBytes <= 0 {
		t.Fatalf("incomplete estimate: %+v", est)
	}
}

// TestPeakBudgetCoversBadlyHintedRun locks down the planner's peak: both
// full sampling passes group their samples without a table, in arrays sized
// from the pairs they hold, so nothing grows and PeakTableBytes equals
// TableBytes; each pass's realized high-water mark
// (sampler.Stats.PeakTableBytes: the grouped upper triangle and the bucket
// scatter) must stay within it.
func TestPeakBudgetCoversBadlyHintedRun(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 1200, Communities: 5, PIn: 0.05, POut: 0.003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(16)
	cfg.T = 5
	cfg.SampleMultiple = 2
	est, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.PeakTableBytes != est.TableBytes {
		t.Fatalf("peak %d differs from steady state %d, though nothing grows", est.PeakTableBytes, est.TableBytes)
	}
	if est.Total() < est.PeakTableBytes {
		t.Fatal("Total must include the grouping's peak")
	}
	for _, tc := range []struct {
		name   string
		shards int
		run    func(scfg sampler.Config) (sampler.Stats, error)
	}{
		{"plain/shards=1", 1, func(scfg sampler.Config) (sampler.Stats, error) {
			_, stats, err := sampler.Sample(g, scfg)
			return stats, err
		}},
		{"batched/shards=4", 4, func(scfg sampler.Config) (sampler.Stats, error) {
			_, stats, err := sampler.SampleBatched(g, scfg, 0)
			return stats, err
		}},
	} {
		scfg := sampler.Config{T: cfg.T, M: est.Trials, Downsample: true, Seed: 3, Shards: tc.shards}
		stats, err := tc.run(scfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.PeakTableBytes <= stats.TableBytes {
			t.Fatalf("%s: peak %d does not exceed steady state %d",
				tc.name, stats.PeakTableBytes, stats.TableBytes)
		}
		if stats.PeakTableBytes > est.PeakTableBytes {
			t.Fatalf("%s: realized peak %d exceeds budgeted peak %d",
				tc.name, stats.PeakTableBytes, est.PeakTableBytes)
		}
	}
}

// TestEstimateMemoryBatchedWalkBuffer checks the batched-mode pipeline
// scratch is budgeted (and only then).
func TestEstimateMemoryBatchedWalkBuffer(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 600, Communities: 4, PIn: 0.06, POut: 0.004, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(16)
	plain, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.WalkBufferBytes != 0 {
		t.Fatalf("plain mode budgets walk buffers: %d", plain.WalkBufferBytes)
	}
	cfg.BatchedWalks = true
	batched, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched.WalkBufferBytes < 24*batched.ExpectedHeads {
		t.Fatalf("walk buffer %d smaller than the head records alone (%d heads)",
			batched.WalkBufferBytes, batched.ExpectedHeads)
	}
	if batched.Total() <= plain.Total() {
		t.Fatal("batched mode must budget strictly more than plain")
	}
	// A smaller wave caps the per-wave buffers.
	cfg.WaveSize = 1024
	smallWave, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if smallWave.WalkBufferBytes > batched.WalkBufferBytes {
		t.Fatal("shrinking the wave must not enlarge the buffer budget")
	}
}

// TestEstimateMemoryAliasTableBytes checks the planner's alias accounting:
// weighted graphs carry 12 B/arc of Vose alias tables (what weighted
// batched walking draws from), split out of GraphBytes into their own line
// item so the sum still equals the graph's true footprint; unweighted
// graphs budget zero.
func TestEstimateMemoryAliasTableBytes(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 400, Communities: 4, PIn: 0.06, POut: 0.004, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	plain, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.AliasTableBytes != 0 {
		t.Fatalf("unweighted graph budgets alias tables: %d", plain.AliasTableBytes)
	}
	if plain.GraphBytes != g.SizeBytes() {
		t.Fatalf("unweighted GraphBytes %d != SizeBytes %d", plain.GraphBytes, g.SizeBytes())
	}
	// Weighted twin: same arcs, unit-ish weights.
	var arcs []graph.WeightedEdge
	for u := 0; u < g.NumVertices(); u++ {
		d := g.Degree(uint32(u))
		for i := 0; i < d; i++ {
			v := g.Neighbor(uint32(u), i)
			if uint32(u) < v {
				arcs = append(arcs, graph.WeightedEdge{U: uint32(u), V: v, W: 1 + float64(i%3)})
			}
		}
	}
	wg, err := graph.FromWeightedEdges(g.NumVertices(), arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := EstimateMemory(wg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 * wg.NumEdges(); weighted.AliasTableBytes != want {
		t.Fatalf("alias bytes %d, want 12 B/arc = %d", weighted.AliasTableBytes, want)
	}
	if weighted.GraphBytes+weighted.AliasTableBytes != wg.SizeBytes() {
		t.Fatalf("GraphBytes %d + AliasTableBytes %d != SizeBytes %d",
			weighted.GraphBytes, weighted.AliasTableBytes, wg.SizeBytes())
	}
}

func TestEstimateMemoryNoDownsample(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 500, Communities: 4, PIn: 0.08, POut: 0.005, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.SampleMultiple = 1
	with, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoDownsample = true
	without, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if without.ExpectedHeads < with.ExpectedHeads {
		t.Fatal("downsampling must not increase expected heads")
	}
	if without.ExpectedHeads != without.Trials {
		t.Fatal("without downsampling every trial is a head")
	}
}

func TestMaxAffordableSamples(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 800, Communities: 4, PIn: 0.06, POut: 0.004, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(16)
	budget := int64(64 << 20) // 64 MB
	m, err := MaxAffordableSamples(g, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if m < 1 {
		t.Fatalf("affordable samples %d", m)
	}
	// The returned M must fit; M+1... the next power-of-two step must not.
	c := cfg
	c.M = m
	est, err := EstimateMemory(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total() > budget {
		t.Fatalf("returned M=%d does not fit: %d > %d", m, est.Total(), budget)
	}
	c.M = 2 * m
	est2, err := EstimateMemory(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Total() <= budget {
		t.Fatalf("doubling M still fits (%d <= %d): search stopped early", est2.Total(), budget)
	}
	// A bigger budget affords at least as many samples.
	m2, err := MaxAffordableSamples(g, cfg, 4*budget)
	if err != nil {
		t.Fatal(err)
	}
	if m2 < m {
		t.Fatalf("larger budget affords fewer samples: %d < %d", m2, m)
	}
	// Paper shape: downsampling raises the affordable sample count.
	noDown := cfg
	noDown.NoDownsample = true
	mNoDown, err := MaxAffordableSamples(g, noDown, budget)
	if err != nil {
		t.Fatal(err)
	}
	if mNoDown > m {
		t.Fatalf("downsampling should raise affordable M: %d (on) vs %d (off)", m, mNoDown)
	}
	// Impossible budget errors.
	if _, err := MaxAffordableSamples(g, cfg, 10); err == nil {
		t.Fatal("expected error for absurd budget")
	}
	if _, err := MaxAffordableSamples(g, cfg, 0); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

// TestEstimateMemorySketchStrictlyLower is an acceptance criterion of the
// single-pass factorization: for the sparse-sign default at practical
// dimensions, the planner must predict a strictly lower peak than the
// multi-pass rSVD on the same graph and sample budget. The dense side drops
// from five n×k iterate matrices to the two sketch accumulators (n×k plus
// n×l); both factorizers read the same scaled sparsifier, so it prices the
// same.
func TestEstimateMemorySketchStrictlyLower(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 2000, Communities: 8, PIn: 0.04, POut: 0.003, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{16, 32, 128} {
		cfg := DefaultConfig(d)
		cfg.T = 5
		cfg.SampleMultiple = 2
		ref, err := EstimateMemory(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.StreamedSVD = true
		sk, err := EstimateMemory(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sk.Total() >= ref.Total() {
			t.Fatalf("d=%d: sketch total %d not strictly below rSVD total %d", d, sk.Total(), ref.Total())
		}
		if sk.SparsifierBytes == 0 || sk.SparsifierBytes != ref.SparsifierBytes {
			t.Fatalf("d=%d: sketch sparsifier %d bytes, the rSVD plan's %d", d, sk.SparsifierBytes, ref.SparsifierBytes)
		}
		if sk.DenseBytes >= ref.DenseBytes {
			t.Fatalf("d=%d: sketch dense %d not below rSVD dense %d", d, sk.DenseBytes, ref.DenseBytes)
		}
	}
}

// TestMaxAffordableSamplesGrowsInSketchMode: the planning payoff — under the
// same byte budget, the smaller sketch-mode footprint affords strictly more
// PathSampling trials, which is what buys embedding quality (§5.2.4).
func TestMaxAffordableSamplesGrowsInSketchMode(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 2000, Communities: 8, PIn: 0.04, POut: 0.003, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(32)
	cfg.T = 5
	// Budget exactly what the sketch plan needs for half a million samples:
	// sketch mode then affords at least that many, while the rSVD plan —
	// strictly more bytes at every M — cannot reach it.
	const pivot = 500_000
	scfg := cfg
	scfg.StreamedSVD = true
	scfg.M = pivot
	at, err := EstimateMemory(g, scfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := at.Total()
	mRef, err := MaxAffordableSamples(g, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	scfg.M = 0
	mSketch, err := MaxAffordableSamples(g, scfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	if mSketch < pivot {
		t.Fatalf("sketch mode affords %d samples, should cover the %d its own plan was budgeted for", mSketch, pivot)
	}
	if mSketch <= mRef {
		t.Fatalf("sketch mode affords %d samples, rSVD mode %d — expected strictly more", mSketch, mRef)
	}
}

// TestEstimateMemoryGaussianPricesHigherThanSign pins the honest accounting
// for the dense cross-check kind: Gaussian test matrices double the
// accumulator-width allocation, so the planner must charge the Gaussian
// sketch more than the sparse-sign default.
func TestEstimateMemoryGaussianPricesHigherThanSign(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 1500, Communities: 6, PIn: 0.05, POut: 0.003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(32)
	cfg.T = 5
	cfg.StreamedSVD = true
	sign, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch = svd.SketchGaussian
	gauss, err := EstimateMemory(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gauss.DenseBytes <= sign.DenseBytes {
		t.Fatalf("gaussian dense %d should exceed sign dense %d", gauss.DenseBytes, sign.DenseBytes)
	}
}

// TestEstimateMemoryPricesPropagationWorkspace: the propagation stage is the
// whole difference between a plan with it and one without, and that
// difference is the figure prone.Propagate sizes its own buffers from — the
// operator over Ã's pattern included, which the old "~4 n×d" never saw.
func TestEstimateMemoryPricesPropagationWorkspace(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMConfig{N: 1000, Communities: 4, PIn: 0.05, POut: 0.003, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, streamed := range []bool{false, true} {
		cfg := DefaultConfig(32)
		cfg.StreamedSVD = streamed
		with, err := EstimateMemory(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SkipPropagation = true
		without, err := EstimateMemory(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := prone.WorkspaceBytes(g.NumVertices(), g.NumEdges(), cfg.Dim)
		if got := with.Total() - without.Total(); got != want {
			t.Fatalf("streamed=%v: propagation priced at %d bytes, prone.WorkspaceBytes says %d", streamed, got, want)
		}
		if nd := int64(g.NumVertices()) * int64(cfg.Dim) * 8; want <= 5*nd {
			t.Fatalf("workspace %d does not exceed its five n×d buffers (%d): operator not priced", want, 5*nd)
		}
	}
}

// TestSamplePresizeMatchesPlanner: the planner prices the per-arc pass's
// grouping from sampler.ExpectedHeads, so at the harness shapes — RMAT-12 at
// DefaultConfig(64) and RMAT-13 at M = 2·T·m — the pass's realized
// high-water mark stays within the planned one, and the plan is no more
// than three times it (the plan counts every head as a distinct entry).
func TestSamplePresizeMatchesPlanner(t *testing.T) {
	for _, c := range []struct {
		scale    int
		dim      int
		multiple float64
	}{{12, 64, 0}, {13, 32, 2}} {
		for seed := uint64(1); seed <= 10; seed++ {
			g, err := gen.RMAT(gen.RMATConfig{Scale: c.scale, EdgeFactor: 20, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(c.dim)
			if c.multiple > 0 {
				cfg.SampleMultiple = c.multiple
			}
			cfg.Seed = seed
			est, err := EstimateMemory(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := sampler.Sample(g, cfg.Sampler(g))
			if err != nil {
				t.Fatal(err)
			}
			if stats.PeakTableBytes > est.PeakTableBytes || 3*stats.PeakTableBytes < est.PeakTableBytes {
				t.Errorf("rmat%d seed %d: grouping peak %d bytes, planned %d", c.scale, seed, stats.PeakTableBytes, est.PeakTableBytes)
			}
		}
	}
}

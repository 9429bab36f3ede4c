package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/prone"
)

func sbm(t *testing.T) (*graph.Graph, *gen.Labels) {
	t.Helper()
	g, labels, err := gen.SBM(gen.SBMConfig{
		N: 1200, Communities: 6, PIn: 0.04, POut: 0.003, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

func TestEmbedShapesAndTimings(t *testing.T) {
	g, _ := sbm(t)
	cfg := DefaultConfig(16)
	cfg.T = 5
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumVertices() || res.Embedding.Cols != 16 {
		t.Fatalf("shape %dx%d", res.Embedding.Rows, res.Embedding.Cols)
	}
	if res.Timing.Sparsifier <= 0 || res.Timing.SVD <= 0 || res.Timing.Propagation <= 0 {
		t.Fatalf("incomplete timing: %+v", res.Timing)
	}
	if res.Timing.Total() < res.Timing.SVD {
		t.Fatal("Total must cover all stages")
	}
	if res.Initial == res.Embedding {
		t.Fatal("propagated embedding should differ from initial")
	}
	for _, v := range res.Embedding.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in embedding")
		}
	}
}

func TestEmbedSkipPropagation(t *testing.T) {
	g, _ := sbm(t)
	cfg := SmallConfig(8)
	cfg.T = 3
	cfg.SkipPropagation = true
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Propagation != 0 {
		t.Fatal("propagation timing should be zero when skipped")
	}
	if res.Initial != res.Embedding {
		t.Fatal("without propagation, Initial and Embedding must be identical")
	}
}

func TestEmbedClassificationQuality(t *testing.T) {
	// The headline integration check: LightNE embeddings classify the
	// planted SBM communities far above chance, and propagation does not
	// destroy the initial embedding's quality.
	g, labels := sbm(t)
	cfg := DefaultConfig(16)
	cfg.T = 5
	cfg.SampleMultiple = 2
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	final, err := eval.NodeClassification(res.Embedding, labels.Of, labels.NumClasses, 0.3, 5, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(labels.NumClasses)
	if final.MicroF1 < 3*chance {
		t.Fatalf("LightNE micro-F1 %.3f not well above chance %.3f", final.MicroF1, chance)
	}
}

func TestLightNEBeatsInitialNetSMFAtLowSamples(t *testing.T) {
	// The paper's core claim (§5.2.3): spectral propagation lifts a cheap
	// NetSMF embedding. At a very low sample budget the initial embedding
	// is noisy; propagation must improve classification.
	g, labels := sbm(t)
	cfg := SmallConfig(16)
	cfg.T = 5
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := eval.NodeClassification(res.Initial, labels.Of, labels.NumClasses, 0.3, 5, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	final, err := eval.NodeClassification(res.Embedding, labels.Of, labels.NumClasses, 0.3, 5, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if final.MicroF1 < initial.MicroF1-0.02 {
		t.Fatalf("propagation hurt quality: %.3f -> %.3f", initial.MicroF1, final.MicroF1)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	g, _ := sbm(t)
	cfg := SmallConfig(8)
	cfg.T = 3
	cfg.Seed = 42
	a, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Embedding.Data {
		if a.Embedding.Data[i] != b.Embedding.Data[i] {
			t.Fatal("same seed produced different embeddings")
		}
	}
}

// TestEmbedDeterministicAcrossProcs is the default-path golden: DefaultConfig
// (per-arc sampler, rSVD, Chebyshev propagation) at one seed must give the
// same embedding, bit for bit, whatever GOMAXPROCS is — every parallel
// kernel on the path either owns its output elements outright (SpMM, MatMul,
// the QR's columns, the element-wise updates) or reduces over a fixed
// geometry (MatMulATB).
func TestEmbedDeterministicAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g, _ := sbm(t)
	cfg := DefaultConfig(16)
	cfg.T = 5
	cfg.Seed = 42
	var golden *Result
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Embed(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = res
			continue
		}
		for i, want := range golden.Embedding.Data {
			if got := res.Embedding.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("procs=%d: element %d = %v, golden (procs=1) %v", procs, i, got, want)
			}
		}
	}
}

func TestEmbedErrors(t *testing.T) {
	g, _ := sbm(t)
	if _, err := Embed(g, Config{T: 5, Dim: 0}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := Embed(g, Config{T: 0, Dim: 8}); err == nil {
		t.Fatal("expected T error")
	}
	empty, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Embed(empty, DefaultConfig(4)); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

// TestShardsAboveBoundRejected: a shard count past the sampler's bound
// (1 024) is a prompt error from Embed on both samplers and from the
// planner, at 1<<30 and at math.MaxInt.
func TestShardsAboveBoundRejected(t *testing.T) {
	g := karate(t)
	for _, shards := range []int{math.MaxInt, 1 << 30} {
		for _, batched := range []bool{false, true} {
			cfg := DefaultConfig(4)
			cfg.Shards, cfg.BatchedWalks = shards, batched
			start := time.Now()
			if _, err := Embed(g, cfg); err == nil {
				t.Fatalf("shards=%d batched=%v: Embed accepted it", shards, batched)
			}
			if _, err := EstimateMemory(g, cfg); err == nil {
				t.Fatalf("shards=%d batched=%v: EstimateMemory accepted it", shards, batched)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("shards=%d batched=%v: rejection took %v", shards, batched, d)
			}
		}
	}
}

func TestConfigPresets(t *testing.T) {
	small, large := SmallConfig(32), LargeConfig(32)
	if small.SampleMultiple != 0.1 || large.SampleMultiple != 20 {
		t.Fatalf("presets wrong: %g %g", small.SampleMultiple, large.SampleMultiple)
	}
	def := DefaultConfig(32)
	if def.T != 10 || def.Dim != 32 {
		t.Fatalf("default config wrong: %+v", def)
	}
	if def.Propagation != prone.DefaultPropagation() {
		t.Fatal("default propagation mismatch")
	}
}

// TestEmbedStreamedSVD runs the full pipeline — sampling, streamed single-pass
// factorization, spectral propagation — through the public Config knob and
// checks the result is a usable embedding of the right shape whose community
// structure survives as well as the multi-pass path's.
func TestEmbedStreamedSVD(t *testing.T) {
	g, labels := sbm(t)
	cfg := DefaultConfig(16)
	cfg.T = 5
	cfg.StreamedSVD = true
	res, err := Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumVertices() || res.Embedding.Cols != 16 {
		t.Fatalf("shape %dx%d", res.Embedding.Rows, res.Embedding.Cols)
	}
	for _, v := range res.Embedding.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in streamed embedding")
		}
	}
	cls, err := eval.NodeClassification(res.Embedding, labels.Of, labels.NumClasses, 0.3, 5, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if chance := 1.0 / float64(labels.NumClasses); cls.MicroF1 < 3*chance {
		t.Fatalf("streamed embedding micro-F1 %.3f barely above chance %.3f", cls.MicroF1, chance)
	}
}

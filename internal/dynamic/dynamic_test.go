package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"lightne/internal/core"
	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
)

func growingSBM(t *testing.T) (*graph.Graph, []graph.Edge, *gen.Labels) {
	t.Helper()
	g, labels, err := gen.SBM(gen.SBMConfig{
		N: 1500, Communities: 6, PIn: 0.04, POut: 0.003, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Split the edge set: 80% initial graph, 20% arriving later.
	var all []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u), nil) {
			if uint32(u) < v {
				all = append(all, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	cut := len(all) * 8 / 10
	initial, err := graph.FromEdges(g.NumVertices(), all[:cut], graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return initial, all[cut:], labels
}

func testConfig() core.Config {
	cfg := core.DefaultConfig(16)
	cfg.T = 5
	cfg.SampleMultiple = 2
	cfg.Seed = 11
	return cfg
}

func TestNewAndEmbed(t *testing.T) {
	initial, _, labels := growingSBM(t)
	e, err := New(initial, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.NumVertices() != initial.NumVertices() {
		t.Fatal("vertex count mismatch")
	}
	if e.Staleness() != 0 {
		t.Fatalf("fresh embedder staleness %g", e.Staleness())
	}
	x, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := eval.NodeClassification(x, labels.Of, labels.NumClasses, 0.3, 3, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if cr.MicroF1 < 2.0/float64(labels.NumClasses) {
		t.Fatalf("initial embedding quality %.3f too low", cr.MicroF1)
	}
}

func TestAddEdgesIncremental(t *testing.T) {
	initial, later, labels := growingSBM(t)
	e, err := New(initial, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := e.NumEdges()
	// Deliver the held-back edges in three batches.
	third := len(later) / 3
	for i := 0; i < 3; i++ {
		lo, hi := i*third, (i+1)*third
		if i == 2 {
			hi = len(later)
		}
		if err := e.AddEdges(later[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if e.NumEdges() != before+len(later) {
		t.Fatalf("edges %d want %d", e.NumEdges(), before+len(later))
	}
	if e.Staleness() <= 0 {
		t.Fatal("staleness should be positive after incremental batches")
	}
	x, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	incr, err := eval.NodeClassification(x, labels.Of, labels.NumClasses, 0.3, 3, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	// Compare with a full rebuild on the final graph.
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	if e.Staleness() != 0 {
		t.Fatal("Refresh must clear staleness")
	}
	xf, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	full, err := eval.NodeClassification(xf, labels.Of, labels.NumClasses, 0.3, 3, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	// Incremental must stay within a few F1 points of the full rebuild.
	if math.Abs(incr.MicroF1-full.MicroF1) > 0.10 {
		t.Fatalf("incremental %.3f vs full %.3f drifted too far", incr.MicroF1, full.MicroF1)
	}
}

func TestAddEdgesGrowsVertexSet(t *testing.T) {
	initial, _, _ := growingSBM(t)
	e, err := New(initial, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumVertices()
	// Attach two brand-new vertices.
	batch := []graph.Edge{
		{U: uint32(n), V: 0},
		{U: uint32(n + 1), V: uint32(n)},
	}
	if err := e.AddEdges(batch); err != nil {
		t.Fatal(err)
	}
	if e.NumVertices() != n+2 {
		t.Fatalf("vertices %d want %d", e.NumVertices(), n+2)
	}
	x, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != n+2 {
		t.Fatalf("embedding rows %d want %d", x.Rows, n+2)
	}
}

func TestAddEdgesIgnoresDuplicatesAndLoops(t *testing.T) {
	initial, _, _ := growingSBM(t)
	e, err := New(initial, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := e.NumEdges()
	// Re-deliver existing edges plus self loops: nothing should change.
	var dup []graph.Edge
	for u := 0; u < 10; u++ {
		for _, v := range initial.Neighbors(uint32(u), nil) {
			dup = append(dup, graph.Edge{U: uint32(u), V: v})
		}
		dup = append(dup, graph.Edge{U: uint32(u), V: uint32(u)})
	}
	if err := e.AddEdges(dup); err != nil {
		t.Fatal(err)
	}
	if e.NumEdges() != before {
		t.Fatalf("duplicate batch changed edge count %d -> %d", before, e.NumEdges())
	}
	if err := e.AddEdges(nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewErrors(t *testing.T) {
	initial, _, _ := growingSBM(t)
	bad := testConfig()
	bad.Dim = 0
	if _, err := New(initial, bad); err == nil {
		t.Fatal("expected dim error")
	}
	bad = testConfig()
	bad.T = 0
	if _, err := New(initial, bad); err == nil {
		t.Fatal("expected T error")
	}
	for _, shards := range []int{math.MaxInt, 1 << 30} {
		bad = testConfig()
		bad.Shards = shards
		if _, err := New(initial, bad); err == nil {
			t.Fatalf("expected an error for %d shards", shards)
		}
	}
}

func TestNewRejectsWeightedGraph(t *testing.T) {
	wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(wg, testConfig()); err == nil {
		t.Fatal("expected weighted-graph rejection")
	}
}

// TestEmbedDeterministicAcrossProcsAndShards puts the incremental path inside
// the determinism contract: an initial pass plus an ingested batch, factorized
// and propagated, is a pure function of (graph, batches, seed) — the
// fully-sorted drain erases slot and shard order, and the symmetric rSVD
// needs no transpose whose layout could depend on them.
func TestEmbedDeterministicAcrossProcsAndShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	full, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	arcs := collectArcs(full)
	cut := len(arcs) * 3 / 4
	initial, err := graph.FromEdges(full.NumVertices(), arcs[:cut], graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var golden []float64
	for _, shards := range []int{1, 4} {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			cfg := testConfig()
			cfg.Shards = shards
			e, err := New(initial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddEdges(arcs[cut:]); err != nil {
				t.Fatal(err)
			}
			x, err := e.Embed()
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = x.Data
				continue
			}
			for i, want := range golden {
				if math.Float64bits(x.Data[i]) != math.Float64bits(want) {
					t.Fatalf("shards=%d procs=%d: element %d = %v, golden (1, 1) %v", shards, procs, i, x.Data[i], want)
				}
			}
		}
	}
}

// TestEmbedGolden pins the bits of an incremental embedding: RMAT scale 10
// (edge factor 20, seed 5), New on the first three quarters of its arcs,
// AddEdges the rest, Embed at DefaultConfig(16) with four shards. The sha256
// is over the embedding's float64s, little-endian, row-major.
// See DESIGN.md "Numerics".
func TestEmbedGolden(t *testing.T) {
	full, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	arcs := collectArcs(full)
	cut := len(arcs) * 3 / 4
	initial, err := graph.FromEdges(full.NumVertices(), arcs[:cut], graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(16)
	cfg.Shards = 4
	e, err := New(initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges(arcs[cut:]); err != nil {
		t.Fatal(err)
	}
	x, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, v := range x.Data {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	const golden = "605ba920d85b4bb24d0f8bd8814425ad7a86699653fd31524098a42bfc754512"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("embedding sha256 %s, golden %s", got, golden)
	}
}

// TestEmbedHonoursStreamedSVD: Embed factorizes with the config's factorizer
// — it is core.EmbedTable over the embedder's own table, bit for bit — so a
// sketch-configured embedder does not silently run the rSVD.
func TestEmbedHonoursStreamedSVD(t *testing.T) {
	initial, later, _ := growingSBM(t)
	cfg := testConfig()
	cfg.StreamedSVD = true
	e, err := New(initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdges(later); err != nil {
		t.Fatal(err)
	}
	x, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EmbedTable(e.g, e.table, e.trials, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Embedding.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(w) {
			t.Fatalf("element %d = %v, core.EmbedTable %v", i, x.Data[i], w)
		}
	}
	e.cfg.StreamedSVD = false
	rsvd, err := e.Embed()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rsvd.Data {
		if math.Float64bits(rsvd.Data[i]) != math.Float64bits(x.Data[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("StreamedSVD embedding equals the rSVD embedding: the setting was dropped")
	}
}

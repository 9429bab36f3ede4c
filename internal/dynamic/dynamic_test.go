package dynamic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lightne/internal/core"
	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/rng"
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
	all := g.Edges()
	cut := len(all) * 8 / 10
	initial, err := graph.FromEdges(g.NumVertices(), all[:cut])
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
	// An existing edge in reverse orientation is a duplicate too; an edge to
	// a vertex beyond the current count is new, once, however often and in
	// whichever orientation it is given.
	u, v := uint32(3), initial.Neighbors(3, nil)[0]
	if err := e.AddEdges([]graph.Edge{{U: max(u, v), V: min(u, v)}}); err != nil {
		t.Fatal(err)
	}
	if e.NumEdges() != before {
		t.Fatalf("reversed existing edge changed edge count %d -> %d", before, e.NumEdges())
	}
	n := uint32(e.NumVertices())
	if err := e.AddEdges([]graph.Edge{{U: 0, V: n + 4}, {U: n + 4, V: 0}, {U: 0, V: n + 4}}); err != nil {
		t.Fatal(err)
	}
	if e.NumEdges() != before+1 || e.NumVertices() != int(n)+5 {
		t.Fatalf("edge to vertex %d: %d edges over %d vertices, want %d over %d", n+4, e.NumEdges(), e.NumVertices(), before+1, n+5)
	}
}

// TestAddEdgesGraphEqualsFromEdges: after every batch the embedder's graph,
// merged into the previous CSR, is the graph FromEdges builds from all edges
// delivered so far, over random batches with repeats, reversed pairs, edges
// already present, self loops and vertex ids past the current count, from a
// simple initial graph and from one with a self loop and a one-way arc
// stored only from its higher ID (the first batch rebuilds that graph and
// keeps the arc). The loose graph's expectation starts from the arcs written
// into it, not from its own Edges.
func TestAddEdgesGraphEqualsFromEdges(t *testing.T) {
	full, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	arcs := full.Edges()
	cut := len(arcs) * 9 / 10
	simple, err := graph.FromEdges(full.NumVertices(), arcs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	// loose is simple plus a self loop at 0 and a vertex n0 whose one arc,
	// n0 → 0, has no reverse.
	n0 := full.NumVertices()
	offsets, edges := []int64{0}, []uint32{0}
	written := []graph.Edge{{U: 0, V: 0}}
	for u := 0; u < n0; u++ {
		for _, v := range simple.Neighbors(uint32(u), nil) {
			edges = append(edges, v)
			written = append(written, graph.Edge{U: uint32(u), V: v})
		}
		offsets = append(offsets, int64(len(edges)))
	}
	edges = append(edges, 0)
	offsets = append(offsets, int64(len(edges)))
	written = append(written, graph.Edge{U: uint32(n0), V: 0})
	loose, err := graph.FromCSR(offsets, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []*graph.Graph{simple, loose} {
		e, err := New(start, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if e.simple != (start == simple) {
			t.Fatalf("New: simple = %v on the %v graph", e.simple, start == simple)
		}
		delivered := start.Edges()
		if start == loose {
			delivered = written
		}
		src := rng.New(7, 0)
		for batch := 0; batch < 6; batch++ {
			n := e.NumVertices()
			var b []graph.Edge
			for k := 0; k < 1+src.Intn(30); k++ {
				switch src.Intn(5) {
				case 0: // an edge from the rest of the RMAT graph
					b = append(b, arcs[cut+src.Intn(len(arcs)-cut)])
				case 1: // an edge already present, in either orientation
					a := delivered[src.Intn(len(delivered))]
					b = append(b, a, graph.Edge{U: a.V, V: a.U})
				case 2: // a self loop
					u := uint32(src.Intn(n))
					b = append(b, graph.Edge{U: u, V: u})
				case 3: // a vertex past the current count
					b = append(b, graph.Edge{U: uint32(n + src.Intn(3)), V: uint32(src.Intn(n))})
				default: // a random pair, repeated reversed
					u, v := uint32(src.Intn(n)), uint32(src.Intn(n))
					b = append(b, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
				}
			}
			if err := e.AddEdges(b); err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, b...)
			want, err := graph.FromEdges(e.NumVertices(), delivered)
			if err != nil {
				t.Fatal(err)
			}
			if e.g.NumVertices() != want.NumVertices() || e.g.NumEdges() != want.NumEdges() || int64(e.NumEdges()) != want.NumEdges()/2 {
				t.Fatalf("batch %d: %d vertices, %d arcs (%d edges); want %d, %d", batch, e.g.NumVertices(), e.g.NumEdges(), e.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			for u := 0; u < want.NumVertices(); u++ {
				if got, w := e.g.Neighbors(uint32(u), nil), want.Neighbors(uint32(u), nil); !slices.Equal(got, w) {
					t.Fatalf("batch %d: row %d = %v, want %v", batch, u, got, w)
				}
			}
			if start == loose && !slices.Contains(e.g.Neighbors(uint32(n0), nil), 0) {
				t.Fatalf("batch %d: the edge n0–0 is lost", batch)
			}
		}
	}
}

// TestSampleStateIs16BytesPerHead: the embedder keeps one pair per head, a
// packed key and a fixed-point weight, in segments of exactly their length,
// after New, after batches of every size (one edge included) and after
// Refresh.
func TestSampleStateIs16BytesPerHead(t *testing.T) {
	initial, later, _ := growingSBM(t)
	e, err := New(initial, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if e.heads == 0 {
			t.Fatalf("%s: no heads kept", when)
		}
		if got := stateBytes(e); got != 16*e.heads {
			t.Fatalf("%s: %d bytes kept for %d heads, want 16 per head", when, got, e.heads)
		}
	}
	check("New")
	for _, b := range [][]graph.Edge{later[:1], later[1:40], later[40:]} {
		if err := e.AddEdges(b); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("AddEdges of %d", len(b)))
	}
	if err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	check("Refresh")
}

// stateBytes is the capacity of the embedder's kept pair segments, in bytes.
func stateBytes(e *Embedder) int64 {
	var b int64
	for i := range e.keys {
		b += 8 * int64(cap(e.keys[i])+cap(e.fixed[i]))
	}
	return b
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
	// An edgeless graph fixes no per-arc rate (M/0), so New rejects it, as
	// core.Embed does, rather than embed every later batch from no samples.
	edgeless, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(edgeless, testConfig()); err == nil {
		t.Fatal("expected an edgeless-graph error")
	}
}

func TestNewRejectsWeightedGraph(t *testing.T) {
	wg, err := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(wg, testConfig()); err == nil {
		t.Fatal("expected weighted-graph rejection")
	}
}

// TestEmbedDeterministicAcrossProcsAndShards puts the incremental path inside
// the determinism contract: an initial pass plus an ingested batch, factorized
// and propagated, is a pure function of (graph, batches, seed) — the grouping
// sort erases the order in which workers kept their pairs, Shards selects
// nothing, and the symmetric rSVD needs no transpose whose layout could
// depend on them.
func TestEmbedDeterministicAcrossProcsAndShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	full, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	arcs := full.Edges()
	cut := len(arcs) * 3 / 4
	initial, err := graph.FromEdges(full.NumVertices(), arcs[:cut])
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
// AddEdges the rest, Embed at DefaultConfig(16) with four shards (which
// select nothing since the embedder groups its pairs by sorting). The sha256
// is over the embedding's float64s, little-endian, row-major.
// See DESIGN.md "Numerics".
func TestEmbedGolden(t *testing.T) {
	full, err := gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	arcs := full.Edges()
	cut := len(arcs) * 3 / 4
	initial, err := graph.FromEdges(full.NumVertices(), arcs[:cut])
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
// — it is core.EmbedTable over the embedder's grouped pairs, bit for bit —
// so a sketch-configured embedder does not silently run the rSVD.
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
	want, err := core.EmbedTable(e.g, e.sink(), e.trials, cfg)
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

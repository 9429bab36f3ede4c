package sampler

import (
	"math"
	"runtime"
	"testing"
	"time"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
)

// completeArcs lists every undirected arc of the complete graph on n
// vertices once, as (u, v) with u < v.
func completeArcs(n int) []graph.Edge {
	arcs := make([]graph.Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			arcs = append(arcs, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	return arcs
}

// TestSinkShardedStress drives the incremental sampler → sharded table →
// grouped drain path with a deliberately tiny capacity hint so every shard
// grows (several times) under concurrent inserts. Run under `go test -race`
// (wired into `make race`) this covers the CAS insert, xadd accumulate,
// grow lock, parallel two-pass drain, and bucketed grouping together. The
// drained CSR must be bit-identical to the single-shard run with the same
// seed.
func TestSinkShardedStress(t *testing.T) {
	g := completeGraph(t, 48)
	arcs := completeArcs(48)
	cfg := Config{T: 4, Downsample: true, Seed: 17}
	perArc := 300_000 / float64(len(arcs))

	ref := NewSink(16, 1)
	refStats, err := SampleArcsInto(g, ref, arcs, perArc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Shards() != 1 {
		t.Fatalf("shards=1 sink has %d shards", ref.Shards())
	}
	refRowPtr, refCols, refWs := ref.DrainCSR(g.NumVertices())

	sink := NewSink(16, 8)
	stats, err := SampleArcsInto(g, sink, arcs, perArc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Shards() != 8 {
		t.Fatalf("got %d shards, want 8", sink.Shards())
	}
	if stats.Trials != refStats.Trials || stats.Heads != refStats.Heads {
		t.Fatalf("stats differ: %+v vs %+v", stats, refStats)
	}
	if sink.Len() != ref.Len() {
		t.Fatalf("distinct entries %d, want %d", sink.Len(), ref.Len())
	}

	rowPtr, cols, ws := sink.DrainCSR(g.NumVertices())
	if len(cols) != len(refCols) {
		t.Fatalf("nnz %d, want %d", len(cols), len(refCols))
	}
	for i := range refRowPtr {
		if rowPtr[i] != refRowPtr[i] {
			t.Fatalf("rowPtr[%d]=%d want %d", i, rowPtr[i], refRowPtr[i])
		}
	}
	for i := range refCols {
		if cols[i] != refCols[i] || ws[i] != refWs[i] {
			t.Fatalf("entry %d: (%d,%v) want (%d,%v)", i, cols[i], ws[i], refCols[i], refWs[i])
		}
	}

	// Weight mass conservation: total drained weight equals Σ heads·(1/p_e)
	// accumulated in both orientations; cheaper to check the two drains agree
	// and are symmetric.
	var total, refTotal float64
	for i := range ws {
		total += ws[i]
		refTotal += refWs[i]
	}
	if total != refTotal {
		t.Fatalf("total weight %v, want %v", total, refTotal)
	}
}

// TestSinkIncrementalSharded exercises SampleArcsInto against a sharded sink
// (the dynamic embedder's configuration): concurrent accumulation into an
// undersized sharded table, whose fully-sorted drain must be bit-identical to
// the single table's for the same seed.
func TestSinkIncrementalSharded(t *testing.T) {
	g := completeGraph(t, 32)
	arcs := completeArcs(32)
	n := g.NumVertices()
	drain := func(shards int) ([]int64, []uint32, []float64) {
		sink := NewSink(16, shards)
		stats, err := SampleArcsInto(g, sink, arcs, 50, Config{T: 3, Downsample: true, C: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Trials == 0 || sink.Len() == 0 {
			t.Fatalf("degenerate run: %+v, len %d", stats, sink.Len())
		}
		return sink.DrainCSR(n)
	}
	rowPtr, cols, ws := drain(1)
	sRowPtr, sCols, sWs := drain(4)
	for i := range rowPtr {
		if rowPtr[i] != sRowPtr[i] {
			t.Fatalf("sharded rowPtr[%d]=%d want %d", i, sRowPtr[i], rowPtr[i])
		}
	}
	for i := range cols {
		if cols[i] != sCols[i] || ws[i] != sWs[i] {
			t.Fatalf("entry %d: (%d,%v) want (%d,%v)", i, sCols[i], sWs[i], cols[i], ws[i])
		}
	}
}

// TestStatsPeakTableBytes: an undersized table hint forces the incremental
// pass's table to grow, and the stats must expose the transient high-water
// mark (old + new slot arrays = 1.5x the final footprint); a presized table
// never grows, so peak and final agree. Sample, which groups without a
// table, reports the grouped CSR and, above it, the grouping's peak.
func TestStatsPeakTableBytes(t *testing.T) {
	g := completeGraph(t, 40)
	arcs := completeArcs(40)
	cfg := Config{T: 5, Seed: 9}
	perArc := 20000 / float64(len(arcs))

	for _, shards := range []int{1, 4} {
		stats, err := SampleArcsInto(g, NewSink(1, shards), arcs, perArc, cfg) // guaranteed undersized: forces repeated doubling
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakTableBytes != stats.TableBytes*3/2 {
			t.Fatalf("shards=%d: peak %d, want 1.5x final %d after growth",
				shards, stats.PeakTableBytes, stats.TableBytes)
		}
	}

	stats, err := SampleArcsInto(g, NewSink(4*20000, 1), arcs, perArc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakTableBytes != stats.TableBytes {
		t.Fatalf("presized pass grew: peak %d != final %d", stats.PeakTableBytes, stats.TableBytes)
	}

	cfg.M = 20000
	_, stats, err = Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8*int64(g.NumVertices()+1) + 12*int64(stats.DistinctEntries); stats.TableBytes != want {
		t.Fatalf("Sample: table %d bytes, the grouped CSR takes %d", stats.TableBytes, want)
	}
	if stats.PeakTableBytes <= stats.TableBytes {
		t.Fatalf("Sample: peak %d does not exceed the grouped CSR's %d", stats.PeakTableBytes, stats.TableBytes)
	}
}

// TestShardsAboveBoundRejected: a shard count above hashtable.MaxShards, up
// to math.MaxInt (which overflows a power-of-two rounding), is a prompt
// error from every sampling pass, before any table is allocated; MaxShards
// itself is accepted.
func TestShardsAboveBoundRejected(t *testing.T) {
	g := completeGraph(t, 8)
	arcs := []graph.Edge{{U: 0, V: 1}}
	for _, shards := range []int{hashtable.MaxShards + 1, 1 << 30, math.MaxInt} {
		cfg := Config{T: 3, M: 1000, Seed: 1, Shards: shards}
		start := time.Now()
		if cfg.Check() == nil {
			t.Fatalf("Shards=%d: Check accepted it", shards)
		}
		if _, _, err := Sample(g, cfg); err == nil {
			t.Fatalf("Shards=%d: Sample accepted it", shards)
		}
		if _, _, err := SampleBatched(g, cfg, 0); err == nil {
			t.Fatalf("Shards=%d: SampleBatched accepted it", shards)
		}
		if _, err := SampleArcsInto(g, NewSink(0, 1), arcs, 1, cfg); err == nil {
			t.Fatalf("Shards=%d: SampleArcsInto accepted it", shards)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Shards=%d: rejection took %v", shards, d)
		}
	}
	cfg := Config{T: 3, M: 1000, Seed: 1, Shards: hashtable.MaxShards}
	if _, _, err := Sample(g, cfg); err != nil {
		t.Fatalf("Shards=MaxShards: %v", err)
	}
}

// TestSampleWorkerBuffersConcurrent runs Sample on four workers over a small
// graph with enough heads that every worker fills several buffer segments,
// the pass's shared state being the per-worker buffers the grouping reads. Under -race (`make race`) it checks that no two
// workers touch one buffer; in any mode, that the grouped CSR equals the
// table oracle's.
func TestSampleWorkerBuffersConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := completeGraph(t, 48)
	cfg := Config{T: 3, M: 12 * segPairs, Seed: 29}
	sink, stats, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, want := sampleTableOracle(g, cfg)
	if stats.Heads != want.Heads || stats.DistinctEntries != want.DistinctEntries {
		t.Fatalf("heads/entries %d/%d, oracle %d/%d", stats.Heads, stats.DistinctEntries, want.Heads, want.DistinctEntries)
	}
	sameCSR(t, "procs=4", sink, table, g.NumVertices())
}

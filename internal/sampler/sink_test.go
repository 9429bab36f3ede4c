package sampler

import (
	"testing"

	"lightne/internal/aggregate"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
)

// TestSinkShardedStress drives the full sampler → sharded table → grouped
// drain path with a deliberately tiny capacity hint so every shard grows
// (several times) under concurrent inserts. Run under `go test -race` (wired
// into `make race`) this covers the CAS insert, xadd accumulate, grow lock,
// parallel two-pass drain, and radix grouping together. The drained CSR must
// be bit-identical to the single-table run with the same seed.
func TestSinkShardedStress(t *testing.T) {
	g := completeGraph(t, 48)
	cfg := Config{T: 4, M: 300_000, Downsample: true, Seed: 17, TableSizeHint: 16}

	cfg.Shards = 1
	ref, refStats, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ref.(*hashtable.Table); !ok {
		t.Fatalf("shards=1 sink is %T, want *hashtable.Table", ref)
	}
	refRowPtr, refCols, refWs := ref.DrainCSR(g.NumVertices())

	cfg.Shards = 8
	sink, stats, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := sink.(*aggregate.SharedTable)
	if !ok {
		t.Fatalf("shards=8 sink is %T, want *aggregate.SharedTable", sink)
	}
	if st.Shards() != 8 {
		t.Fatalf("got %d shards, want 8", st.Shards())
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
	arcs := make([]graph.Edge, 0, 32*31/2)
	for u := 0; u < 32; u++ {
		for v := u + 1; v < 32; v++ {
			arcs = append(arcs, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
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

// TestStatsPeakTableBytes: an undersized table hint forces growth during the
// pass and the stats must expose the transient high-water mark (old + new
// slot arrays = 1.5x the final footprint); a correctly presized pass never
// grows, so peak and final agree.
func TestStatsPeakTableBytes(t *testing.T) {
	g := completeGraph(t, 40)
	cfg := Config{T: 5, M: 20000, Seed: 9}

	cfg.TableSizeHint = 1 // guaranteed undersized: forces repeated doubling
	for _, shards := range []int{1, 4} {
		cfg.Shards = shards
		_, stats, err := Sample(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakTableBytes != stats.TableBytes*3/2 {
			t.Fatalf("shards=%d: peak %d, want 1.5x final %d after growth",
				shards, stats.PeakTableBytes, stats.TableBytes)
		}
	}

	cfg.Shards = 1
	cfg.TableSizeHint = 0 // derived estimate presizes generously
	_, stats, err := Sample(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakTableBytes != stats.TableBytes {
		t.Fatalf("presized pass grew: peak %d != final %d", stats.PeakTableBytes, stats.TableBytes)
	}
}

package sampler

import (
	"math"
	"runtime"
	"testing"
	"time"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
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

// orientedTable inserts both orientations of every one-orientation pair
// into NewSink(…, shards), presized for them all, one AddFixedBatch per
// segment, the segments on all workers at once, and groups the table's
// drained entries over n vertices with the reference sort.
func orientedTable(keys, fixed [][]uint64, shards, n int) *csrView {
	pairs := 0
	for _, seg := range keys {
		pairs += 2 * len(seg)
	}
	table := NewSink(pairs, shards)
	par.ForRange(len(keys), 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			var ok, of []uint64
			for i, k := range keys[s] {
				// A self pair's one key carries both orientations' weight.
				ok, of = append(ok, k), append(of, fixed[s][i])
				if u, v := hashtable.UnpackKey(k); u != v {
					ok, of = append(ok, hashtable.Key(v, u)), append(of, fixed[s][i])
				}
			}
			table.AddFixedBatch(ok, of)
		}
	})
	us, vs, ws := table.Drain()
	ref := refSink{keys: make([]uint64, len(us)), fixed: make([]uint64, len(us))}
	for i := range us {
		ref.keys[i], ref.fixed[i] = hashtable.Key(us[i], vs[i]), hashtable.ToFixed(ws[i])
	}
	return ref.group(n)
}

// TestSinkShardedStress drives the incremental sampler's pairs through the
// table NewSink returns, under concurrent batch inserts from all workers,
// with one shard asked for and with eight, which NewSink ignores. Run under
// `go test -race` (wired into `make race`) this covers the table's CAS
// claim, xadd accumulate and parallel drain together. The drained entries,
// sorted, must be bit-identical across the two tables and to Group's CSR.
func TestSinkShardedStress(t *testing.T) {
	g := completeGraph(t, 48)
	n := g.NumVertices()
	arcs := completeArcs(48)
	cfg := Config{T: 4, Downsample: true, Seed: 17}
	perArc := 300_000 / float64(len(arcs))
	keys, fixed, stats, err := SampleArcs(g, arcs, perArc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := orientedTable(keys, fixed, 1, n)
	sameCSR(t, "shards=8", orientedTable(keys, fixed, 8, n), ref, n)
	sameCSR(t, "Group", Group(keys, fixed, n, &stats), ref, n)
	if stats.DistinctEntries != ref.Len() {
		t.Fatalf("Group: %d distinct entries, the table %d", stats.DistinctEntries, ref.Len())
	}
}

// TestSinkIncrementalSharded: the incremental pass's pairs, with the
// downsampling constant given, aggregated in NewSink's table with a shard
// count of four, which it ignores, drain bit-identical to one with a shard
// count of one and to Group.
func TestSinkIncrementalSharded(t *testing.T) {
	g := completeGraph(t, 32)
	n := g.NumVertices()
	keys, fixed, stats, err := SampleArcs(g, completeArcs(32), 50, Config{T: 3, Downsample: true, C: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trials == 0 || stats.Heads == 0 {
		t.Fatalf("degenerate run: %+v", stats)
	}
	ref := orientedTable(keys, fixed, 1, n)
	sameCSR(t, "shards=4", orientedTable(keys, fixed, 4, n), ref, n)
	sameCSR(t, "Group", Group(keys, fixed, n, &stats), ref, n)
}

// TestStatsPeakTableBytes: Sample, which groups without a table, reports the
// grouped CSR and, above it, the grouping's peak.
func TestStatsPeakTableBytes(t *testing.T) {
	g := completeGraph(t, 40)
	cfg := Config{T: 5, Seed: 9, M: 20000}
	_, stats, err := Sample(g, cfg)
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

// TestShardsAboveBoundRejected: a shard count above maxShards, up to
// math.MaxInt, is a prompt error from every sampling pass; maxShards itself
// is accepted.
func TestShardsAboveBoundRejected(t *testing.T) {
	g := completeGraph(t, 8)
	arcs := []graph.Edge{{U: 0, V: 1}}
	for _, shards := range []int{maxShards + 1, 1 << 30, math.MaxInt} {
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
		if _, _, _, err := SampleArcs(g, arcs, 1, cfg); err == nil {
			t.Fatalf("Shards=%d: SampleArcs accepted it", shards)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Shards=%d: rejection took %v", shards, d)
		}
	}
	cfg := Config{T: 3, M: 1000, Seed: 1, Shards: maxShards}
	if _, _, err := Sample(g, cfg); err != nil {
		t.Fatalf("Shards=maxShards: %v", err)
	}
}

// TestSampleArcsRejectsUndrawableRate: a per-arc rate that is negative,
// NaN or +Inf (an edgeless graph's M/0) fixes no trial count, so the pass
// rejects it instead of drawing nothing.
func TestSampleArcsRejectsUndrawableRate(t *testing.T) {
	g := completeGraph(t, 8)
	arcs := []graph.Edge{{U: 0, V: 1}}
	for _, perArc := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, _, err := SampleArcs(g, arcs, perArc, Config{T: 3, Seed: 1}); err == nil {
			t.Fatalf("perArc %g: SampleArcs accepted it", perArc)
		}
	}
	if _, _, _, err := SampleArcs(g, arcs, 0, Config{T: 3, Seed: 1}); err != nil {
		t.Fatalf("perArc 0: %v", err)
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

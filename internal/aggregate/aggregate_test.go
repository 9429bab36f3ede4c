package aggregate

import (
	"math"
	"sync"
	"testing"

	"lightne/internal/hashtable"
	"lightne/internal/rng"
)

// drainMap converts a Drain result into a key→weight map for comparison.
func drainMap(us, vs []uint32, ws []float64) map[uint64]float64 {
	m := make(map[uint64]float64, len(us))
	for i := range us {
		m[hashtable.Key(us[i], vs[i])] += ws[i]
	}
	return m
}

func TestAllStrategiesAgree(t *testing.T) {
	const workers, perWorker, distinct = 4, 20000, 700
	aggs := map[string]Aggregator{
		"list-histogram":    NewListHistogram(workers),
		"per-worker-tables": NewPerWorkerTables(workers),
		"shared-table":      NewSharedTable(distinct * 2),
	}
	results := map[string]map[uint64]float64{}
	for name, agg := range aggs {
		total := RunWorkload(agg, workers, perWorker, distinct, 7)
		if math.Abs(total-workers*perWorker) > 1e-3 {
			t.Fatalf("%s: total weight %.3f want %d", name, total, workers*perWorker)
		}
		us, vs, ws := drain(agg)
		results[name] = drainMap(us, vs, ws)
	}
	ref := results["list-histogram"]
	for name, got := range results {
		if len(got) != len(ref) {
			t.Fatalf("%s: %d distinct edges, reference %d", name, len(got), len(ref))
		}
		for k, w := range ref {
			if math.Abs(got[k]-w) > 1e-3 {
				t.Fatalf("%s: key %d weight %g want %g", name, k, got[k], w)
			}
		}
	}
}

// drain re-drains an aggregator (all strategies here tolerate a second
// drain returning the same data or empty; we re-run the workload instead).
func drain(agg Aggregator) (us, vs []uint32, ws []float64) {
	return agg.Drain()
}

func TestListHistogramSortsRuns(t *testing.T) {
	l := NewListHistogram(2)
	l.Add(0, 3, 1, 1)
	l.Add(1, 1, 1, 2)
	l.Add(0, 3, 1, 0.5)
	us, vs, ws := l.Drain()
	if len(us) != 2 {
		t.Fatalf("distinct=%d want 2", len(us))
	}
	m := drainMap(us, vs, ws)
	if math.Abs(m[hashtable.Key(3, 1)]-1.5) > 1e-12 {
		t.Fatalf("merged weight wrong: %v", m)
	}
}

func TestMemoryOrdering(t *testing.T) {
	// The paper's §5.2.4 point: list memory scales with samples, shared
	// table with distinct edges. With many samples over few edges the list
	// strategy must report much higher memory.
	const workers, perWorker, distinct = 4, 50000, 200
	list := NewListHistogram(workers)
	shared := NewSharedTable(distinct * 2)
	RunWorkload(list, workers, perWorker, distinct, 3)
	RunWorkload(shared, workers, perWorker, distinct, 3)
	if list.MemoryBytes() < 10*shared.MemoryBytes() {
		t.Fatalf("list memory %d not ≫ shared %d", list.MemoryBytes(), shared.MemoryBytes())
	}
	// Per-worker tables duplicate hot edges across workers.
	pw := NewPerWorkerTables(workers)
	RunWorkload(pw, workers, perWorker, distinct, 3)
	us, _, _ := pw.Drain()
	if len(us) != distinct {
		t.Fatalf("per-worker drain found %d distinct, want %d", len(us), distinct)
	}
}

// TestShardedBitIdenticalToUnsharded: sharding changes no bit of the
// aggregate (DESIGN.md "Numerics").
func TestShardedBitIdenticalToUnsharded(t *testing.T) {
	// Sharding must not change a single bit of the fixed-point aggregates:
	// the same keys land in the same-seeded accumulation, just routed to
	// different shard tables.
	const workers, perWorker, distinct = 8, 30000, 900
	flat := NewSharedTable(distinct * 2)
	sharded := NewShardedTable(distinct*2, 8)
	if sharded.Shards() != 8 {
		t.Fatalf("Shards()=%d want 8", sharded.Shards())
	}
	RunWorkload(flat, workers, perWorker, distinct, 11)
	RunWorkload(sharded, workers, perWorker, distinct, 11)
	fu, fv, fw := flat.Drain()
	su, sv, sw := sharded.Drain()
	if len(fu) != len(su) {
		t.Fatalf("distinct edges differ: %d vs %d", len(fu), len(su))
	}
	got := drainMap(su, sv, sw)
	for i := range fu {
		k := hashtable.Key(fu[i], fv[i])
		if got[k] != fw[i] { // exact: fixed-point accumulation is bit-identical
			t.Fatalf("key %d: sharded %v flat %v", k, got[k], fw[i])
		}
	}
}

func TestShardedGrowsUnderBadHint(t *testing.T) {
	// A wrong capacity hint must still yield exact aggregates: each shard
	// grows independently without losing samples.
	const workers, perWorker, distinct = 4, 20000, 5000
	sharded := NewShardedTable(0, 4) // hint of zero: every shard must grow
	total := RunWorkload(sharded, workers, perWorker, distinct, 19)
	if math.Abs(total-workers*perWorker) > 1e-3 {
		t.Fatalf("total %.3f want %d", total, workers*perWorker)
	}
}

func TestShardedRoundsUpToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}} {
		if got := NewShardedTable(64, c.in).Shards(); got != c.want {
			t.Fatalf("NewShardedTable(_, %d).Shards()=%d want %d", c.in, got, c.want)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	a := newStream(5, 1)
	b := newStream(5, 1)
	var seqA, seqB []int
	for i := 0; i < 100; i++ {
		seqA = append(seqA, a.next(1000))
		seqB = append(seqB, b.next(1000))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestParExposed(t *testing.T) {
	if Par() < 1 {
		t.Fatal("worker count must be positive")
	}
}

// TestShardedDrainCSRBitIdentical: the sharded DrainCSR must be
// bit-identical to the unsharded one on the same sample stream — the full
// key sort erases shard routing and slot order, and fixed-point
// accumulation is exact, so (rowPtr, cols, ws) must match to the bit across
// shard counts. See DESIGN.md "Numerics".
func TestShardedDrainCSRBitIdentical(t *testing.T) {
	const workers, perWorker, distinct = 4, 30000, 900
	const numRows = 1 << 10 // keys from the workload stay below this
	var refPtr []int64
	var refCols []uint32
	var refWs []float64
	for _, shards := range []int{1, 2, 4, 16} {
		agg := NewShardedTable(distinct, shards)
		RunWorkload(agg, workers, perWorker, distinct, 99)
		rowPtr, cols, ws := agg.DrainCSR(numRows)
		if refPtr == nil {
			refPtr, refCols, refWs = rowPtr, cols, ws
			continue
		}
		if len(rowPtr) != len(refPtr) || len(cols) != len(refCols) {
			t.Fatalf("shards=%d: shape mismatch", shards)
		}
		for i := range refPtr {
			if rowPtr[i] != refPtr[i] {
				t.Fatalf("shards=%d: rowPtr[%d]=%d want %d", shards, i, rowPtr[i], refPtr[i])
			}
		}
		for i := range refCols {
			if cols[i] != refCols[i] || ws[i] != refWs[i] {
				t.Fatalf("shards=%d: entry %d (%d,%g) want (%d,%g)",
					shards, i, cols[i], ws[i], refCols[i], refWs[i])
			}
		}
	}
}

// TestSharedTableAddFixedMatchesAdd: the packed fast path must agree with
// the float-facing Add.
func TestSharedTableAddFixedMatchesAdd(t *testing.T) {
	a := NewShardedTable(100, 4)
	b := NewShardedTable(100, 4)
	for i := 0; i < 1000; i++ {
		u, v := uint32(i%37), uint32(i%53)
		a.Add(0, u, v, 1.5)
		b.AddFixed(hashtable.Key(u, v), hashtable.ToFixed(1.5))
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	am := drainMap(a.Drain())
	bm := drainMap(b.Drain())
	for k, w := range am {
		if bm[k] != w {
			t.Fatalf("key %x: %g vs %g", k, w, bm[k])
		}
	}
}

// TestSharedTableGetRoutesShards: Get must see what AddFixed wrote,
// whichever shard the key routed to.
func TestSharedTableGetRoutesShards(t *testing.T) {
	s := NewShardedTable(64, 8)
	for i := uint32(0); i < 500; i++ {
		s.AddFixed(hashtable.Key(i, i+1), hashtable.ToFixed(2))
	}
	for i := uint32(0); i < 500; i++ {
		w, ok := s.Get(i, i+1)
		if !ok || math.Abs(w-2) > 1e-9 {
			t.Fatalf("Get(%d,%d) = %g,%v want 2,true", i, i+1, w, ok)
		}
	}
	if _, ok := s.Get(9999, 9999); ok {
		t.Fatal("absent key reported present")
	}
}

// TestSharedTableAddFixedBatchBitIdentical: the shard-grouped bulk insert
// must be bit-identical to routing every pair through AddFixed, on both the
// small-batch path (grouped into pooled scratch) and the partitioned path.
// See DESIGN.md "Numerics".
func TestSharedTableAddFixedBatchBitIdentical(t *testing.T) {
	s := rng.New(9, 0)
	const g = hashtable.BatchGrain
	for _, n := range []int{1, 100, g, g + 1, 5 * shardPartGrain} {
		keys := make([]uint64, n)
		fixed := make([]uint64, n)
		for i := range keys {
			keys[i] = hashtable.Key(uint32(s.Intn(600)), uint32(s.Intn(600)))
			fixed[i] = uint64(1 + s.Intn(1<<18))
		}
		for _, shards := range []int{1, 4} {
			ref := NewShardedTable(2*n, shards)
			for i := range keys {
				ref.AddFixed(keys[i], fixed[i])
			}
			batch := NewShardedTable(16, shards) // tiny hint: shards grow mid-batch
			batch.AddFixedBatch(keys, fixed)
			if batch.Len() != ref.Len() {
				t.Fatalf("n=%d shards=%d: distinct %d want %d", n, shards, batch.Len(), ref.Len())
			}
			us, vs, ws := ref.Drain()
			got := drainMap(batch.Drain())
			for i := range us {
				k := hashtable.Key(us[i], vs[i])
				if got[k] != ws[i] {
					t.Fatalf("n=%d shards=%d key %d: batch %v want %v", n, shards, k, got[k], ws[i])
				}
			}
		}
	}
}

// TestSharedTableOwnedRacesShared races large batches (partitioned, each
// shard's run inserted under its write lock with plain stores) against small
// batches (grouped in pooled scratch, shared kernel) and single-pair AddFixed
// calls on one sharded table whose shards start at the minimum capacity, so
// both paths grow shards while the other inserts. Under -race this pins the
// owned path's exclusion; the aggregate must be exact in fixed point, key by
// key.
func TestSharedTableOwnedRacesShared(t *testing.T) {
	st := NewShardedTable(0, 4)
	const workers, batches, distinct = 4, 6, 40000
	type batch struct{ keys, fixed []uint64 }
	work := make([][]batch, workers)
	want := map[uint64]uint64{}
	for w := range work {
		s := rng.New(4242, uint64(w))
		for b := 0; b < batches; b++ {
			n := 1 + s.Intn(hashtable.BatchGrain) // grouped small batch, shared kernel
			if w%2 == 0 {
				n = hashtable.BatchGrain + 1 + s.Intn(8*hashtable.BatchGrain) // owned
			}
			bt := batch{make([]uint64, n), make([]uint64, n)}
			for i := range bt.keys {
				k := uint32(s.Intn(distinct))
				bt.keys[i], bt.fixed[i] = hashtable.Key(k, k>>3), uint64(1+s.Intn(1<<10))
				want[bt.keys[i]] += bt.fixed[i]
			}
			work[w] = append(work[w], bt)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range work {
		go func(w int) {
			defer wg.Done()
			for b, bt := range work[w] {
				if w == 1 && b%2 == 1 {
					for i := range bt.keys {
						st.AddFixed(bt.keys[i], bt.fixed[i])
					}
					continue
				}
				st.AddFixedBatch(bt.keys, bt.fixed)
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != len(want) {
		t.Fatalf("Len=%d want %d", st.Len(), len(want))
	}
	us, vs, ws := st.Drain()
	var total, wantTotal uint64
	for i := range us {
		k := hashtable.Key(us[i], vs[i])
		f := hashtable.ToFixed(ws[i])
		if f != want[k] {
			t.Fatalf("key %x: %d want %d", k, f, want[k])
		}
		total += f
	}
	for _, f := range want {
		wantTotal += f
	}
	if total != wantTotal {
		t.Fatalf("fixed-point total %d want %d", total, wantTotal)
	}
}

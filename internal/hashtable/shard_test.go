package hashtable

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lightne/internal/rng"
)

// batch is one insert call of a workload: a batch of pairs, or (single)
// one AddFixed call per pair.
type batch struct {
	keys, fixed []uint64
	single      bool
}

// shardWorkload draws each worker's batches over keys (k, k>>3) for k in
// [0, distinct): small batches (grouped in pooled scratch on a sharded
// table), batches longer than BatchGrain (split into chunks inserted in
// parallel) and runs of single-pair AddFixed calls. It returns the batches
// and the expected fixed-point total of every key.
func shardWorkload(seed uint64, workers, batches, distinct int) ([][]batch, map[uint64]uint64) {
	work := make([][]batch, workers)
	want := map[uint64]uint64{}
	for w := range work {
		s := rng.New(seed, uint64(w))
		for b := 0; b < batches; b++ {
			var bt batch
			n := 1 + s.Intn(BatchGrain)
			switch b % 3 {
			case 1:
				n = BatchGrain + 1 + s.Intn(8*BatchGrain)
			case 2:
				bt.single = true
			}
			bt.keys, bt.fixed = make([]uint64, n), make([]uint64, n)
			for i := range bt.keys {
				k := uint32(s.Intn(distinct))
				bt.keys[i], bt.fixed[i] = Key(k, k>>3), uint64(1+s.Intn(1<<10))
				want[bt.keys[i]] += bt.fixed[i]
			}
			work[w] = append(work[w], bt)
		}
	}
	return work, want
}

// runShardWorkload inserts every worker's batches from its own goroutine.
func runShardWorkload(tab *Table, work [][]batch) {
	var wg sync.WaitGroup
	wg.Add(len(work))
	for w := range work {
		go func(w int) {
			defer wg.Done()
			for _, bt := range work[w] {
				if !bt.single {
					tab.AddFixedBatch(bt.keys, bt.fixed)
					continue
				}
				for i := range bt.keys {
					tab.AddFixed(bt.keys[i], bt.fixed[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkExact fails unless tab holds exactly want, key by key in fixed point.
func checkExact(t *testing.T, name string, tab *Table, want map[uint64]uint64) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len=%d want %d", name, tab.Len(), len(want))
	}
	us, vs, ws := tab.Drain()
	for i := range us {
		if k := Key(us[i], vs[i]); ToFixed(ws[i]) != want[k] {
			t.Fatalf("%s: key %x: %v want %v", name, k, ws[i], FromFixed(want[k]))
		}
	}
}

// TestShardedBitIdenticalToUnsharded: sharding changes no bit of the
// aggregate (DESIGN.md "Numerics"): the same pairs land in the same
// fixed-point sums, only routed to different shards.
func TestShardedBitIdenticalToUnsharded(t *testing.T) {
	work, want := shardWorkload(11, 8, 6, 900)
	for _, shards := range []int{1, 8} {
		tab := New(1800, shards)
		if tab.Shards() != shards {
			t.Fatalf("Shards()=%d want %d", tab.Shards(), shards)
		}
		runShardWorkload(tab, work)
		checkExact(t, fmt.Sprintf("shards=%d", shards), tab, want)
	}
}

// groupInput is one batch of pairs over numRows rows, split into workers'
// insert calls.
type groupInput struct {
	name        string
	keys, fixed []uint64
	work        [][]batch
	numRows     int
}

// groupInputs are the inputs of the drain and grouping bit-identity sweep:
// the sharded workload; heavy duplication with self-pairs and weights large
// enough that summing them in float64 would round; rows and columns that
// need more than 32 bits of key together; no pairs; a one-row graph.
func groupInputs() []groupInput {
	work, _ := shardWorkload(99, 4, 9, 12000)
	var in []groupInput
	add := func(name string, numRows int, work [][]batch) {
		g := groupInput{name: name, work: work, numRows: numRows}
		for _, w := range work {
			for _, bt := range w {
				g.keys, g.fixed = append(g.keys, bt.keys...), append(g.fixed, bt.fixed...)
			}
		}
		in = append(in, g)
	}
	add("workload", 1<<14, work)
	draw := func(seed uint64, n, numRows, cols int, wide bool) [][]batch {
		s := rng.New(seed, 0)
		var bts []batch
		for left := n; left > 0; {
			bt := batch{single: len(bts)%3 == 2}
			for m := min(left, 1+s.Intn(3*BatchGrain)); len(bt.keys) < m; {
				u, v := uint32(s.Intn(numRows)), uint32(s.Intn(cols))
				if s.Intn(4) == 0 {
					v = u
				}
				f := uint64(1 + s.Intn(1<<20))
				if wide {
					f += uint64(s.Intn(1<<12)) << 40
				}
				bt.keys, bt.fixed = append(bt.keys, Key(u, v)), append(bt.fixed, f)
			}
			left -= len(bt.keys)
			bts = append(bts, bt)
		}
		return [][]batch{bts[:len(bts)/2], bts[len(bts)/2:]}
	}
	add("duplicated", 40, draw(5, 60000, 40, 30, true))
	add("wide", 1<<20, draw(6, 30000, 1<<20, 1<<31, false))
	add("empty", 5, nil)
	add("one-row", 1, draw(7, 20000, 1, 5000, false))
	return in
}

// slotSums returns every key the table holds with its fixed-point weight.
func slotSums(tab *Table) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for i := range tab.shards {
		for _, sl := range tab.shards[i].slots {
			if sl.key != 0 {
				m[^sl.key] = sl.val
			}
		}
	}
	return m
}

// TestShardedDrainCSRBitIdentical: DrainCSR returns the same arrays, bit for
// bit, at every shard count and worker count, from a presized table and from
// one whose shards all start at the minimum capacity, so that every shard
// grows while the workers insert into it; and GroupCSR returns them too,
// from the pairs the tables took. The full key sort erases shard routing and
// slot order, and fixed-point accumulation is exact. See DESIGN.md
// "Numerics".
func TestShardedDrainCSRBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range groupInputs() {
		var refPtr []int64
		var refCols []uint32
		var refWs []float64
		check := func(name string, rowPtr []int64, cols []uint32, ws []float64) {
			t.Helper()
			if !slices.Equal(rowPtr, refPtr) || !slices.Equal(cols, refCols) || !slices.Equal(ws, refWs) {
				t.Fatalf("%s/%s: differs from the drain at procs=1 shards=1", in.name, name)
			}
		}
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			for _, shards := range []int{1, 2, 4, 8, 16} {
				for _, hint := range []int{len(in.keys), 0} {
					name := fmt.Sprintf("procs=%d shards=%d hint=%d", procs, shards, hint)
					tab := New(hint, shards)
					runShardWorkload(tab, in.work)
					rowPtr, cols, ws := tab.DrainCSR(in.numRows)
					if refPtr == nil {
						want := map[uint64]uint64{}
						for i, k := range in.keys {
							want[k] += in.fixed[i]
						}
						if !maps.Equal(slotSums(tab), want) {
							t.Fatalf("%s/%s: the table's sums are not the pairs' fixed-point sums", in.name, name)
						}
						refPtr, refCols, refWs = rowPtr, cols, ws
						continue
					}
					check(name, rowPtr, cols, ws)
				}
			}
			rowPtr, cols, ws := GroupCSR(in.keys, in.fixed, in.numRows)
			check(fmt.Sprintf("procs=%d GroupCSR", procs), rowPtr, cols, ws)
		}
	}
}

// TestShardedGrowsUnderBadHint: a wrong capacity hint still yields exact
// aggregates; each shard grows independently without losing samples.
func TestShardedGrowsUnderBadHint(t *testing.T) {
	work, want := shardWorkload(19, 4, 6, 5000)
	tab := New(0, 4) // every shard must grow
	runShardWorkload(tab, work)
	checkExact(t, "hint=0", tab, want)
	if tab.PeakMemoryBytes() <= tab.MemoryBytes() {
		t.Fatalf("peak %d not above final %d after growth", tab.PeakMemoryBytes(), tab.MemoryBytes())
	}
}

// TestShardedRoundsUpToPowerOfTwo: New rounds the shard count up to a power
// of two, at least 1; and a count above MaxShards panics rather than
// allocating.
func TestShardedRoundsUpToPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {MaxShards - 1, MaxShards}, {MaxShards, MaxShards}} {
		for _, hint := range []int{-3, 0, 64, 100_000} {
			tab := New(hint, c.in)
			if got := tab.Shards(); got != c.want {
				t.Fatalf("New(_, %d).Shards()=%d want %d", c.in, got, c.want)
			}
		}
	}
	for _, shards := range []int{MaxShards + 1, 1 << 30, math.MaxInt} {
		for name, f := range map[string]func(){
			"New": func() { New(64, shards) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(_, %d) did not panic", name, shards)
					}
				}()
				f()
			}()
		}
	}
}

// TestShardedAddFixedBatchBitIdentical: the shard-grouped batch insert is
// bit-identical to routing every pair through AddFixed, inline and in
// parallel chunks, into shards that start at the minimum capacity and grow
// mid-batch and into presized shards of 2^18 slots. See DESIGN.md
// "Numerics".
func TestShardedAddFixedBatchBitIdentical(t *testing.T) {
	s := rng.New(9, 0)
	for _, n := range []int{1, 100, BatchGrain, BatchGrain + 1, 10 * BatchGrain} {
		keys := make([]uint64, n)
		fixed := make([]uint64, n)
		for i := range keys {
			keys[i] = Key(uint32(s.Intn(600)), uint32(s.Intn(600)))
			fixed[i] = uint64(1 + s.Intn(1<<18))
		}
		for _, shards := range []int{1, 4} {
			ref := New(2*n, shards)
			for i := range keys {
				ref.AddFixed(keys[i], fixed[i])
			}
			us, vs, ws := ref.Drain()
			for _, hint := range []int{16, 1 << 19} {
				tab := New(hint, shards)
				tab.AddFixedBatch(keys, fixed)
				if tab.Len() != ref.Len() {
					t.Fatalf("n=%d shards=%d hint=%d: distinct %d want %d", n, shards, hint, tab.Len(), ref.Len())
				}
				for i := range us {
					if got, _ := tab.Get(us[i], vs[i]); got != ws[i] {
						t.Fatalf("n=%d shards=%d hint=%d key (%d,%d): batch %v want %v", n, shards, hint, us[i], vs[i], got, ws[i])
					}
				}
			}
		}
	}
}

// TestShardedAddFixedMatchesAdd: the packed fast path agrees with the
// float-facing Add on a sharded table.
func TestShardedAddFixedMatchesAdd(t *testing.T) {
	a, b := New(100, 4), New(100, 4)
	for i := 0; i < 1000; i++ {
		u, v := uint32(i%37), uint32(i%53)
		a.Add(u, v, 1.5)
		b.AddFixed(Key(u, v), ToFixed(1.5))
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	us, vs, ws := a.Drain()
	for i := range us {
		if got, _ := b.Get(us[i], vs[i]); got != ws[i] {
			t.Fatalf("key (%d,%d): %g vs %g", us[i], vs[i], ws[i], got)
		}
	}
}

// TestShardedGetRoutesShards: Get sees what AddFixed wrote, whichever shard
// the key routed to.
func TestShardedGetRoutesShards(t *testing.T) {
	tab := New(64, 8)
	for i := uint32(0); i < 500; i++ {
		tab.AddFixed(Key(i, i+1), ToFixed(2))
	}
	for i := uint32(0); i < 500; i++ {
		w, ok := tab.Get(i, i+1)
		if !ok || w != 2 {
			t.Fatalf("Get(%d,%d) = %g,%v want 2,true", i, i+1, w, ok)
		}
	}
	if _, ok := tab.Get(9999, 9999); ok {
		t.Fatal("absent key reported present")
	}
}

// TestShardedLongBatchesRaceShort races long batches (chunks inserted in
// parallel, each grouped by shard) against small batches and single-pair
// AddFixed calls on one sharded table whose shards start at the minimum
// capacity, so every path grows shards while the others insert. The
// aggregate must be exact in fixed point, key by key.
func TestShardedLongBatchesRaceShort(t *testing.T) {
	work, want := shardWorkload(4242, 4, 6, 40000)
	tab := New(0, 4)
	runShardWorkload(tab, work)
	checkExact(t, "long vs short", tab, want)
	var wantTotal uint64
	for _, f := range want {
		wantTotal += f
	}
	if total := fixedTotal(tab); total != wantTotal {
		t.Fatalf("fixed-point total %d want %d", total, wantTotal)
	}
}

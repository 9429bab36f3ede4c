package hashtable

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lightne/internal/rng"
)

func TestKeyPackUnpack(t *testing.T) {
	f := func(u, v uint32) bool {
		gu, gv := UnpackKey(Key(u, v))
		return gu == u && gv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPointRoundtrip(t *testing.T) {
	for _, w := range []float64{0, 1, 0.5, 3.25, 1000.125, 1e6} {
		got := FromFixed(ToFixed(w))
		if math.Abs(got-w) > 1.0/(1<<FixedPointShift) {
			t.Fatalf("fixed roundtrip %g -> %g", w, got)
		}
	}
}

func TestToFixedClampsDomain(t *testing.T) {
	cases := []struct {
		w    float64
		want uint64
	}{
		{0, 0},
		{-1, 0},
		{-1e300, 0},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
		{1, fixedOne},
		{MaxWeight, math.MaxUint64},
		{MaxWeight * 2, math.MaxUint64},
		{1 << 50, math.MaxUint64},
		{math.Inf(1), math.MaxUint64},
	}
	for _, c := range cases {
		if got := ToFixed(c.w); got != c.want {
			t.Fatalf("ToFixed(%g)=%d want %d", c.w, got, c.want)
		}
	}
	// Just below the saturation point the conversion must stay exact.
	w := float64(uint64(1) << 43)
	if got := ToFixed(w); got != uint64(1)<<63 {
		t.Fatalf("ToFixed(2^43)=%d want %d", got, uint64(1)<<63)
	}
}

// TestPresizedTableNeverGrows: a table presized for k distinct keys takes
// them without running out, at hints across power-of-two boundaries and
// load-factor truncation edges (where a table used to come out one slot
// short). Every insert path runs, each key twice: per-key Add, one batch,
// and small batches from four goroutines at once.
func TestPresizedTableNeverGrows(t *testing.T) {
	hints := []int{1, 7, 8, 14, 15, 16, 17, 56, 57, 63, 64, 100, 127, 128,
		255, 256, 896, 897, 1 << 12, 1<<12 + 1, 1 << 16}
	paths := []struct {
		name   string
		insert func(tab *Table, keys, fixed []uint64)
	}{
		{"per-key", func(tab *Table, keys, _ []uint64) {
			for _, k := range keys {
				u, v := UnpackKey(k)
				tab.Add(u, v, 1)
			}
		}},
		{"batch", (*Table).AddFixedBatch},
		{"concurrent-batches", func(tab *Table, keys, fixed []uint64) {
			const workers, flush = 4, 37
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					var ks, fs []uint64
					for i := w; i < len(keys); i += workers {
						ks, fs = append(ks, keys[i]), append(fs, fixed[i])
						if len(ks) == flush || i+workers >= len(keys) {
							tab.AddFixedBatch(ks, fs)
							ks, fs = ks[:0], fs[:0]
						}
					}
				}(w)
			}
			wg.Wait()
		}},
	}
	for _, k := range hints {
		keys := make([]uint64, 2*k)
		fixed := make([]uint64, 2*k)
		for i := 0; i < k; i++ {
			keys[i], keys[k+i] = Key(uint32(i), uint32(i>>2)), Key(uint32(i), uint32(i>>2))
			fixed[i], fixed[k+i] = fixedOne, fixedOne
		}
		for _, p := range paths {
			tab := New(k)
			p.insert(tab, keys, fixed)
			if n := len(drained(tab)); n != k {
				t.Fatalf("%s hint %d: %d keys", p.name, k, n)
			}
			if got, want := fixedTotal(tab), uint64(2*k)*fixedOne; got != want {
				t.Fatalf("%s hint %d: fixed-point total %d want %d", p.name, k, got, want)
			}
		}
	}
}

// fixedTotal sums every stored fixed-point weight.
func fixedTotal(tab *Table) uint64 {
	var total uint64
	for _, s := range tab.slots {
		total += s.val
	}
	return total
}

// drained returns the table's entries, drained, by packed key.
func drained(tab *Table) map[uint64]float64 {
	us, vs, ws := tab.Drain()
	m := make(map[uint64]float64, len(us))
	for i := range us {
		m[Key(us[i], vs[i])] = ws[i]
	}
	return m
}

func TestPresizeTightAtExactPowers(t *testing.T) {
	for _, c := range []struct{ capacity, slots int }{
		{14, 16},      // 14 keys fit 16 slots under the 7/8 load factor
		{7 << 6, 512}, // 7·64 keys exactly fill 512 slots at load 7/8
		{7<<6 + 1, 1024},
		{7 << 10, 1 << 13}, // 7·2^10 keys exactly fill 2^13 slots
		{-3, 16}, {0, 16},
	} {
		if got := New(c.capacity).MemoryBytes() / 16; got != int64(c.slots) {
			t.Fatalf("New(%d): %d slots want %d", c.capacity, got, c.slots)
		}
	}
}

// TestFullTablePanics: an insert that finds every slot taken by other keys
// panics, naming the slot count, rather than probing forever. A table
// presized for 14 keys has 16 slots; it takes 16 distinct keys, and a
// repeat of one of them, but not a 17th.
func TestFullTablePanics(t *testing.T) {
	tab := New(14)
	for i := uint32(0); i < 16; i++ {
		tab.Add(i, i, 1)
	}
	tab.Add(3, 3, 1)
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		tab.Add(99, 99, 1)
	}()
	select {
	case r := <-done:
		if msg, _ := r.(string); !strings.Contains(msg, "16 slots") {
			t.Fatalf("insert into a full table: recovered %v, want a panic naming its 16 slots", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert into a full table did not return")
	}
	if got := fixedTotal(tab); got != 17*fixedOne {
		t.Fatalf("fixed-point total %d want %d", got, 17*fixedOne)
	}
}

func TestAddGet(t *testing.T) {
	tab := New(8)
	tab.Add(1, 2, 1.5)
	tab.Add(1, 2, 2.5)
	tab.Add(3, 4, 1)
	got := drained(tab)
	if len(got) != 2 {
		t.Fatalf("%d keys want 2", len(got))
	}
	if w, ok := got[Key(1, 2)]; !ok || w != 4 {
		t.Fatalf("(1,2)=(%g,%v)", w, ok)
	}
	if _, ok := got[Key(9, 9)]; ok {
		t.Fatal("absent key present")
	}
}

func TestAgainstMapOracle(t *testing.T) {
	s := rng.New(31, 0)
	tab := New(100 * 100)
	oracle := map[uint64]float64{}
	for i := 0; i < 20000; i++ {
		u := uint32(s.Intn(100))
		v := uint32(s.Intn(100))
		w := float64(s.Intn(8)) * 0.25
		tab.Add(u, v, w)
		oracle[Key(u, v)] += w
	}
	got := drained(tab)
	if len(got) != len(oracle) {
		t.Fatalf("%d keys, oracle %d", len(got), len(oracle))
	}
	for k, want := range oracle {
		if w, ok := got[k]; !ok || math.Abs(w-want) > 1e-3 {
			u, v := UnpackKey(k)
			t.Fatalf("key (%d,%d): got %g,%v want %g", u, v, w, ok, want)
		}
	}
}

func TestConcurrentExactCounts(t *testing.T) {
	// The paper's key guarantee: every sample is accounted for exactly.
	tab := New(1024)
	const workers = 8
	const perWorker = 50000
	const distinct = 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			s := rng.New(7, uint64(id))
			for i := 0; i < perWorker; i++ {
				k := s.Intn(distinct)
				tab.Add(uint32(k), uint32(k%17), 1)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	_, _, ws := tab.Drain()
	for _, w := range ws {
		total += w
	}
	if math.Abs(total-workers*perWorker) > 1e-3 {
		t.Fatalf("total weight %.3f want %d (lost or duplicated samples)", total, workers*perWorker)
	}
}

func TestDrain(t *testing.T) {
	tab := New(16)
	tab.Add(5, 6, 2)
	tab.Add(7, 8, 3)
	us, vs, ws := tab.Drain()
	if len(us) != 2 || len(vs) != 2 || len(ws) != 2 {
		t.Fatalf("Drain lengths %d %d %d", len(us), len(vs), len(ws))
	}
	sum := ws[0] + ws[1]
	if math.Abs(sum-5) > 1e-5 {
		t.Fatalf("weights %v", ws)
	}
}

func TestDrainMatchesSequentialReference(t *testing.T) {
	s := rng.New(41, 0)
	tab := New(50000)
	for i := 0; i < 50000; i++ {
		tab.Add(uint32(s.Intn(3000)), uint32(s.Intn(3000)), 0.5)
	}
	wu, wv, ww := drainSequential(tab)
	us, vs, ws := tab.Drain()
	if len(us) != len(wu) || len(vs) != len(wu) || len(ws) != len(wu) {
		t.Fatalf("Drain lengths %d/%d/%d want %d", len(us), len(vs), len(ws), len(wu))
	}
	for i := range us {
		if us[i] != wu[i] || vs[i] != wv[i] || ws[i] != ww[i] {
			t.Fatalf("entry %d: (%d,%d) %g, slot order gives (%d,%d) %g", i, us[i], vs[i], ws[i], wu[i], wv[i], ww[i])
		}
	}
}

// drainCSR drains a table as CSR arrays over numRows rows, the way a
// table-based pass would hand its entries on: Drain, then GroupCSR of the
// distinct entries.
func drainCSR(tab *Table, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	us, vs, drainedWs := tab.Drain()
	keys, fixed := make([]uint64, len(us)), make([]uint64, len(us))
	for i := range us {
		keys[i], fixed[i] = Key(us[i], vs[i]), ToFixed(drainedWs[i])
	}
	return GroupCSR(keys, fixed, numRows)
}

func TestDrainCSR(t *testing.T) {
	tab := New(64)
	type entry struct {
		u, v uint32
		w    float64
	}
	entries := []entry{
		{0, 3, 1}, {0, 1, 2}, {2, 2, 3}, {2, 0, 4}, {2, 7, 5}, {5, 5, 6},
	}
	for _, e := range entries {
		tab.Add(e.u, e.v, e.w)
	}
	const numRows = 7
	rowPtr, cols, ws := drainCSR(tab, numRows)
	if len(rowPtr) != numRows+1 {
		t.Fatalf("rowPtr len %d want %d", len(rowPtr), numRows+1)
	}
	if rowPtr[0] != 0 || rowPtr[numRows] != int64(len(entries)) {
		t.Fatalf("rowPtr endpoints %d..%d", rowPtr[0], rowPtr[numRows])
	}
	want := map[uint32]map[uint32]float64{
		0: {3: 1, 1: 2}, 2: {2: 3, 0: 4, 7: 5}, 5: {5: 6},
	}
	for r := 0; r < numRows; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		if int(hi-lo) != len(want[uint32(r)]) {
			t.Fatalf("row %d has %d entries want %d", r, hi-lo, len(want[uint32(r)]))
		}
		for p := lo; p < hi; p++ {
			if p > lo && cols[p] <= cols[p-1] {
				t.Fatalf("row %d columns not strictly ascending: %v", r, cols[lo:hi])
			}
			if w := want[uint32(r)][cols[p]]; math.Abs(w-ws[p]) > 1e-5 {
				t.Fatalf("entry (%d,%d): %g want %g", r, cols[p], ws[p], w)
			}
		}
	}
	// The table must survive the drain untouched.
	if n := len(drained(tab)); n != len(entries) {
		t.Fatalf("the drain consumed the table: %d keys", n)
	}
}

func TestDrainCSRLarge(t *testing.T) {
	s := rng.New(77, 0)
	const n = 500
	tab := New(n * n)
	oracle := map[uint64]float64{}
	for i := 0; i < 40000; i++ {
		u, v := uint32(s.Intn(n)), uint32(s.Intn(n))
		tab.Add(u, v, 0.25)
		oracle[Key(u, v)] += 0.25
	}
	rowPtr, cols, ws := drainCSR(tab, n)
	if rowPtr[n] != int64(len(oracle)) {
		t.Fatalf("nnz %d want %d", rowPtr[n], len(oracle))
	}
	for r := 0; r < n; r++ {
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			want := oracle[Key(uint32(r), cols[p])]
			if math.Abs(want-ws[p]) > 1e-3 {
				t.Fatalf("(%d,%d): %g want %g", r, cols[p], ws[p], want)
			}
		}
	}
}

// TestDrainCSRPanicsOnRowOutOfRange: a table holding a source vertex >=
// numRows panics when drained as CSR — past the last bucket, inside the
// last bucket's row range, and with no rows at all.
func TestDrainCSRPanicsOnRowOutOfRange(t *testing.T) {
	for _, c := range []struct {
		numRows int
		row     uint32
		pairs   int
	}{{0, 0, 1}, {5, 5, 1}, {257, 257, 40000}, {257, 300, 40000}, {1000, 1 << 30, 40000}, {4096, 0xfffffffe, 3}} {
		s := rng.New(3, 0)
		tab := New(c.pairs + 1)
		for i := 0; i < c.pairs; i++ {
			tab.Add(uint32(s.Intn(max(c.numRows, 1))), uint32(s.Intn(1000)), 1)
		}
		tab.Add(c.row, 7, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("numRows=%d row=%d: no panic", c.numRows, c.row)
				}
			}()
			drainCSR(tab, c.numRows)
		}()
	}
}

// TestRaceStress races single-pair inserts of 7·2^12 distinct keys from
// eight goroutines into a table presized for exactly that many, so the
// last claims collide at the full 7/8 load, on long probe runs. The
// aggregate must be exact in fixed point: every sample accounted for, none
// duplicated.
func TestRaceStress(t *testing.T) {
	const workers, perWorker, distinct = 8, 30000, 7 << 12
	tab := New(distinct)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint32((i*workers + id) % distinct)
				tab.Add(k, k^1, 1)
			}
		}(w)
	}
	wg.Wait()
	if n := len(drained(tab)); n != distinct {
		t.Fatalf("%d keys want %d", n, distinct)
	}
	if total, want := fixedTotal(tab), uint64(workers)*perWorker*fixedOne; total != want {
		t.Fatalf("fixed-point total %d want %d (lost or duplicated samples)", total, want)
	}
}

func TestMemoryBytes(t *testing.T) {
	tab := New(1000)
	if tab.MemoryBytes() != int64(len(tab.slots))*16 || len(tab.slots) != int(presize(1000)) {
		t.Fatalf("MemoryBytes=%d slots=%d", tab.MemoryBytes(), len(tab.slots))
	}
}

// TestAddFixedBatchMatchesSerial: the batch insert — inline and split over
// the workers — accumulates exactly what a serial fixed-point sum does.
func TestAddFixedBatchMatchesSerial(t *testing.T) {
	s := rng.New(123, 0)
	want := map[uint64]uint64{}
	for _, n := range []int{1, 100, 50000} {
		keys := make([]uint64, n)
		fixed := make([]uint64, n)
		clear(want)
		for i := range keys {
			keys[i] = Key(uint32(s.Intn(800)), uint32(s.Intn(800)))
			fixed[i] = uint64(1 + s.Intn(1<<20))
			want[keys[i]] += fixed[i]
		}
		tab := New(n)
		tab.AddFixedBatch(keys, fixed)
		got := drained(tab)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d keys want %d", n, len(got), len(want))
		}
		for k, f := range want {
			if got[k] != FromFixed(f) { // fixed-point accumulation is exact
				t.Fatalf("n=%d key %x: batch %v want %v", n, k, got[k], FromFixed(f))
			}
		}
	}
}

func TestAddFixedBatchPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	New(8).AddFixedBatch(make([]uint64, 3), make([]uint64, 2))
}

// TestBatchRaceStress races batches (inline and split over the workers) and
// single-pair inserts on one table presized for exactly the distinct keys.
// Under -race this covers the claim CAS, the accumulate xadd and the
// batch's fork-join. The aggregate must be exact in fixed point, key by
// key.
func TestBatchRaceStress(t *testing.T) {
	const workers, batches, distinct = 6, 40, 30000
	type batch struct{ keys, fixed []uint64 }
	work := make([][]batch, workers)
	want := map[uint64]uint64{}
	var total uint64
	for w := range work {
		s := rng.New(808, uint64(w))
		for b := 0; b < batches; b++ {
			n := 1 + s.Intn(6*batchGrain) // some batches fork, most run inline
			bt := batch{make([]uint64, n), make([]uint64, n)}
			for i := range bt.keys {
				k := uint32(s.Intn(distinct))
				bt.keys[i], bt.fixed[i] = Key(k, k*7), uint64(1+s.Intn(1000))
				want[bt.keys[i]] += bt.fixed[i]
				total += bt.fixed[i]
			}
			work[w] = append(work[w], bt)
		}
	}
	tab := New(len(want))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range work {
		go func(w int) {
			defer wg.Done()
			for _, bt := range work[w] {
				if w%3 != 0 {
					tab.AddFixedBatch(bt.keys, bt.fixed)
					continue
				}
				for i := range bt.keys {
					tab.AddFixedBatch(bt.keys[i:i+1], bt.fixed[i:i+1])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fixedTotal(tab); got != total {
		t.Fatalf("fixed-point total %d want %d (lost or duplicated samples)", got, total)
	}
	got := drained(tab)
	if len(got) != len(want) {
		t.Fatalf("%d keys want %d", len(got), len(want))
	}
	for k, f := range want {
		if got[k] != FromFixed(f) {
			t.Fatalf("key %x: weight %v want %v", k, got[k], FromFixed(f))
		}
	}
}

package hashtable

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

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

func TestPresizedTableNeverGrows(t *testing.T) {
	// Sweep hints across power-of-two boundaries (where bits.Len64 used to
	// double) and load-factor truncation edges (where the table used to come
	// out one slot short and grow once anyway). Every insert path runs: the batch kernels reserve headroom for hits
	// too, so each key goes in twice, and the concurrent path races small
	// batches whose reservations overlap near the load limit.
	hints := []int{1, 7, 8, 14, 15, 16, 17, 56, 57, 63, 64, 100, 127, 128,
		255, 256, 896, 897, 1 << 12, 1<<12 + 1, 1 << 16}
	paths := []struct {
		name   string
		insert func(tab *Table, keys, fixed []uint64)
	}{
		{"per-key", func(tab *Table, keys, fixed []uint64) {
			for i := range keys {
				tab.AddFixed(keys[i], fixed[i])
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
			tab := New(k, 1)
			before := tab.Capacity()
			p.insert(tab, keys, fixed)
			if tab.Capacity() != before {
				t.Fatalf("%s hint %d: table grew %d -> %d", p.name, k, before, tab.Capacity())
			}
			if tab.Len() != k {
				t.Fatalf("%s hint %d: Len=%d", p.name, k, tab.Len())
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
	for i := range tab.shards {
		for _, s := range tab.shards[i].slots {
			total += s.val
		}
	}
	return total
}

func TestPresizeTightAtExactPowers(t *testing.T) {
	// A hint of 14 keys fits capacity 16 under the 7/8 load factor; the old
	// bits.Len64 formula allocated 32.
	if got := New(14, 1).Capacity(); got != 16 {
		t.Fatalf("New(14, 1).Capacity()=%d want 16", got)
	}
	// 7·64 keys exactly fill capacity 512 at load 7/8.
	if got := New(7<<6, 1).Capacity(); got != 512 {
		t.Fatalf("New(7<<6, 1).Capacity()=%d want 512", got)
	}
	// 7·2^10 keys exactly fill capacity 2^13 at load 7/8.
	if got := New(7<<10, 1).Capacity(); got != 1<<13 {
		t.Fatalf("New(7<<10, 1).Capacity()=%d want %d", got, 1<<13)
	}
}

func TestAddGet(t *testing.T) {
	tab := New(8, 1)
	tab.Add(1, 2, 1.5)
	tab.Add(1, 2, 2.5)
	tab.Add(3, 4, 1)
	if tab.Len() != 2 {
		t.Fatalf("Len=%d want 2", tab.Len())
	}
	w, ok := tab.Get(1, 2)
	if !ok || math.Abs(w-4) > 1e-5 {
		t.Fatalf("Get(1,2)=(%g,%v)", w, ok)
	}
	if _, ok := tab.Get(9, 9); ok {
		t.Fatal("Get of absent key returned ok")
	}
}

func TestAgainstMapOracle(t *testing.T) {
	s := rng.New(31, 0)
	tab := New(64, 1)
	oracle := map[uint64]float64{}
	for i := 0; i < 20000; i++ {
		u := uint32(s.Intn(100))
		v := uint32(s.Intn(100))
		w := float64(s.Intn(8)) * 0.25
		tab.Add(u, v, w)
		oracle[Key(u, v)] += w
	}
	if tab.Len() != len(oracle) {
		t.Fatalf("Len=%d oracle=%d", tab.Len(), len(oracle))
	}
	for k, want := range oracle {
		u, v := UnpackKey(k)
		got, ok := tab.Get(u, v)
		if !ok {
			t.Fatalf("missing key (%d,%d)", u, v)
		}
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("key (%d,%d): got %g want %g", u, v, got, want)
		}
	}
}

func TestGrowthFromTiny(t *testing.T) {
	tab := New(0, 1)
	n := 10000
	for i := 0; i < n; i++ {
		tab.Add(uint32(i), uint32(i), 1)
	}
	if tab.Len() != n {
		t.Fatalf("Len=%d want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		w, ok := tab.Get(uint32(i), uint32(i))
		if !ok || w != 1 {
			t.Fatalf("key %d: (%g,%v)", i, w, ok)
		}
	}
}

func TestConcurrentExactCounts(t *testing.T) {
	// The paper's key guarantee: every sample is accounted for exactly.
	tab := New(1024, 1)
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

func TestConcurrentGrowth(t *testing.T) {
	// Force growth races: tiny initial table, many concurrent distinct keys.
	tab := New(0, 1)
	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := uint32(id*perWorker + i)
				tab.Add(key, key+1, 0.5)
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != workers*perWorker {
		t.Fatalf("Len=%d want %d", tab.Len(), workers*perWorker)
	}
	// Spot-check a sample of keys.
	for id := 0; id < workers; id++ {
		for _, i := range []int{0, perWorker / 2, perWorker - 1} {
			key := uint32(id*perWorker + i)
			w, ok := tab.Get(key, key+1)
			if !ok || math.Abs(w-0.5) > 1e-5 {
				t.Fatalf("key %d: (%g,%v)", key, w, ok)
			}
		}
	}
}

func TestDrain(t *testing.T) {
	tab := New(16, 1)
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
	tab := New(256, 1)
	for i := 0; i < 50000; i++ {
		tab.Add(uint32(s.Intn(3000)), uint32(s.Intn(3000)), 0.5)
	}
	want := map[uint64]float64{}
	for _, sl := range tab.shards[0].slots {
		if sl.key != 0 {
			want[^sl.key] = FromFixed(sl.val)
		}
	}
	us, vs, ws := tab.Drain()
	if len(us) != len(want) || len(vs) != len(want) || len(ws) != len(want) {
		t.Fatalf("Drain lengths %d/%d/%d want %d", len(us), len(vs), len(ws), len(want))
	}
	for i := range us {
		k := Key(us[i], vs[i])
		w, ok := want[k]
		if !ok {
			t.Fatalf("Drain invented key (%d,%d)", us[i], vs[i])
		}
		if w != ws[i] {
			t.Fatalf("key (%d,%d): drained %g want %g", us[i], vs[i], ws[i], w)
		}
		delete(want, k)
	}
}

// TestDrainShards drains a four-shard table: every entry comes out once,
// shard after shard in slot order.
func TestDrainShards(t *testing.T) {
	tab := New(0, 4)
	for i := 0; i < 300; i++ {
		tab.Add(uint32(i), uint32(i+1), float64(i))
	}
	us, vs, ws := tab.Drain()
	var wu, wv []uint32
	var ww []float64
	for i := range tab.shards {
		for _, sl := range tab.shards[i].slots {
			if sl.key != 0 {
				u, v := UnpackKey(^sl.key)
				wu, wv, ww = append(wu, u), append(wv, v), append(ww, FromFixed(sl.val))
			}
		}
	}
	if !slices.Equal(us, wu) || !slices.Equal(vs, wv) || !slices.Equal(ws, ww) || len(us) != 300 {
		t.Fatalf("Drain returned %d entries, unlike the shards' slots in order", len(us))
	}
	for i := range us {
		if us[i]+1 != vs[i] || ws[i] != float64(us[i]) {
			t.Fatalf("entry %d: (%d, %d) %g", i, us[i], vs[i], ws[i])
		}
	}
}

func TestDrainCSR(t *testing.T) {
	tab := New(64, 1)
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
	rowPtr, cols, ws := tab.DrainCSR(numRows)
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
	if tab.Len() != len(entries) {
		t.Fatalf("DrainCSR consumed the table: Len=%d", tab.Len())
	}
}

func TestDrainCSRLarge(t *testing.T) {
	s := rng.New(77, 0)
	tab := New(1024, 1)
	oracle := map[uint64]float64{}
	const n = 500
	for i := 0; i < 40000; i++ {
		u, v := uint32(s.Intn(n)), uint32(s.Intn(n))
		tab.Add(u, v, 0.25)
		oracle[Key(u, v)] += 0.25
	}
	rowPtr, cols, ws := tab.DrainCSR(n)
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

// TestRaceStress interleaves AddFixed, growth from a tiny initial capacity,
// and concurrent Gets under -race, then asserts the final aggregate is
// exact in fixed point: every sample accounted for, none duplicated.
func TestRaceStress(t *testing.T) {
	tab := New(0, 1) // tiny: forces repeated grows under contention
	const workers = 8
	const perWorker = 30000
	const distinct = 20000
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Two reader goroutines hammer Get while writers insert and force grows.
	readers.Add(2)
	for r := 0; r < 2; r++ {
		go func(id int) {
			defer readers.Done()
			s := rng.New(101, uint64(id))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint32(s.Intn(distinct))
				// A key whose claim is visible may not have its first weight
				// added yet, so a present key can read 0; a weight is always
				// a whole number of samples and never more than were inserted.
				if w, ok := tab.Get(k, k^1); ok && (w != math.Trunc(w) || w > workers*perWorker) {
					t.Errorf("Get returned impossible weight %v", w)
					return
				}
			}
		}(r)
	}
	writers.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer writers.Done()
			s := rng.New(55, uint64(id))
			for i := 0; i < perWorker; i++ {
				k := uint32(s.Intn(distinct))
				tab.AddFixed(Key(k, k^1), ToFixed(1))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if total, want := fixedTotal(tab), uint64(workers)*perWorker*fixedOne; total != want {
		t.Fatalf("fixed-point total %d want %d (lost or duplicated samples)", total, want)
	}
}

func TestMemoryBytes(t *testing.T) {
	tab := New(1000, 1)
	if tab.MemoryBytes() != int64(tab.Capacity())*16 {
		t.Fatalf("MemoryBytes=%d capacity=%d", tab.MemoryBytes(), tab.Capacity())
	}
}

// TestPeakMemoryBytesTracksGrowth forces the table through several doublings
// and checks the recorded high-water mark includes the grow transient, where
// the old and new slot arrays coexist (old = half of new, so the peak is
// 1.5x the post-grow footprint).
func TestPeakMemoryBytesTracksGrowth(t *testing.T) {
	tbl := New(1, 1)
	if got, want := tbl.PeakMemoryBytes(), tbl.MemoryBytes(); got != want {
		t.Fatalf("fresh table peak %d, want %d", got, want)
	}
	start := tbl.MemoryBytes()
	for i := 0; i < 1000; i++ {
		tbl.Add(uint32(i), uint32(i+1), 1)
	}
	if tbl.MemoryBytes() <= start {
		t.Fatal("test did not force growth")
	}
	if got, want := tbl.PeakMemoryBytes(), tbl.MemoryBytes()*3/2; got != want {
		t.Fatalf("peak %d after growth, want old+new = %d", got, want)
	}
}

// TestPeakMemoryBytesConcurrent: the peak stays coherent when growth happens
// under concurrent inserts (exercised under -race by the race target).
func TestPeakMemoryBytesConcurrent(t *testing.T) {
	tbl := New(1, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tbl.Add(uint32(w*500+i), uint32(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if peak, cur := tbl.PeakMemoryBytes(), tbl.MemoryBytes(); peak < cur*3/2 {
		t.Fatalf("peak %d, want at least 1.5x current %d after growth", peak, cur)
	}
}

// TestAddFixedBatchMatchesSerial: the batch insert — inline and in parallel
// chunks — must accumulate exactly what the equivalent AddFixed loop does,
// including when a tiny initial table forces grows mid-batch.
func TestAddFixedBatchMatchesSerial(t *testing.T) {
	s := rng.New(123, 0)
	const n = 50000
	keys := make([]uint64, n)
	fixed := make([]uint64, n)
	for i := range keys {
		keys[i] = Key(uint32(s.Intn(800)), uint32(s.Intn(800)))
		fixed[i] = uint64(1 + s.Intn(1<<20))
	}
	ref := New(2*n, 1)
	for i := range keys {
		ref.AddFixed(keys[i], fixed[i])
	}
	us, vs, ws := ref.Drain()
	for _, hint := range []int{2 * n, 4} { // presized and grow-forcing
		batch := New(hint, 1)
		batch.AddFixedBatch(keys, fixed)
		if batch.Len() != ref.Len() {
			t.Fatalf("hint=%d: distinct %d want %d", hint, batch.Len(), ref.Len())
		}
		for i := range us {
			got, ok := batch.Get(us[i], vs[i])
			if !ok || got != ws[i] { // fixed-point accumulation is exact
				t.Fatalf("hint=%d: key (%d,%d): batch %v want %v", hint, us[i], vs[i], got, ws[i])
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
	New(8, 1).AddFixedBatch(make([]uint64, 3), make([]uint64, 2))
}

// TestBatchRaceStress races batches (inline and forked sizes), single-pair
// AddFixed calls and Gets on one table that starts at the minimum capacity,
// so grows interleave with reservations on every path. Under -race this
// covers the read-lock-per-chunk kernel, the headroom reservation and its
// return, and grow's recheck. The aggregate must be exact in fixed point,
// key by key.
func TestBatchRaceStress(t *testing.T) {
	tab := New(0, 1)
	const workers, batches, distinct = 6, 40, 30000
	type batch struct{ keys, fixed []uint64 }
	work := make([][]batch, workers)
	want := map[uint64]uint64{}
	var total uint64
	for w := range work {
		s := rng.New(808, uint64(w))
		for b := 0; b < batches; b++ {
			n := 1 + s.Intn(3*BatchGrain) // some batches fork, most run inline
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
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		s := rng.New(909, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint32(s.Intn(distinct))
			if w, ok := tab.Get(k, k*7); ok && ToFixed(w) > want[Key(k, k*7)] {
				t.Errorf("Get returned %v, more than was ever inserted", w)
				return
			}
		}
	}()
	writers.Add(workers)
	for w := range work {
		go func(w int) {
			defer writers.Done()
			for _, bt := range work[w] {
				if w%3 != 0 {
					tab.AddFixedBatch(bt.keys, bt.fixed)
					continue
				}
				for i := range bt.keys {
					tab.AddFixed(bt.keys[i], bt.fixed[i])
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tab.Len() != len(want) {
		t.Fatalf("Len=%d want %d distinct keys", tab.Len(), len(want))
	}
	if got := fixedTotal(tab); got != total {
		t.Fatalf("fixed-point total %d want %d (lost or duplicated samples)", got, total)
	}
	us, vs, ws := tab.Drain()
	for i := range us {
		if k := Key(us[i], vs[i]); ToFixed(ws[i]) != want[k] {
			t.Fatalf("key %x: weight %v want %v", k, ws[i], FromFixed(want[k]))
		}
	}
	// Growth happens only when the table is truly full, so the final
	// capacity is the smallest one that admits the keys.
	if got, want := tab.Capacity(), int(presize(len(want))); got != want {
		t.Fatalf("capacity %d, want %d: the table grew while it had room", got, want)
	}
}

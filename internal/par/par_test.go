package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000, 100001} {
		seen := make([]int32, n)
		For(n, 16, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForRangeDisjointCover(t *testing.T) {
	n := 123457
	seen := make([]int32, n)
	ForRange(n, 100, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestWorkerForWorkerIndexInRange: every worker index is dense, and the
// chunks WorkerFor hands out are exactly the blocks of Blocks(n, grain), at
// the edges of the inline path and past the 4·Workers() chunk cap.
func TestWorkerForWorkerIndexInRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const grain = 64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, grain, grain + 1, 4*procs*grain + 3, 100003} {
			var mu sync.Mutex
			got := map[[2]int]int{}
			WorkerFor(n, grain, func(worker, lo, hi int) {
				if worker < 0 || worker >= procs {
					t.Errorf("procs=%d n=%d: worker index %d out of [0,%d)", procs, n, worker, procs)
				}
				mu.Lock()
				got[[2]int{lo, hi}]++
				mu.Unlock()
			})
			bounds := Blocks(n, grain)
			if len(got) != len(bounds)-1 {
				t.Fatalf("procs=%d n=%d: WorkerFor cut %d chunks, Blocks %d", procs, n, len(got), len(bounds)-1)
			}
			for b := 0; b+1 < len(bounds); b++ {
				if c := got[[2]int{bounds[b], bounds[b+1]}]; c != 1 {
					t.Fatalf("procs=%d n=%d: block [%d,%d) run %d times by WorkerFor", procs, n, bounds[b], bounds[b+1], c)
				}
			}
		}
	}
}

func TestBlocksCoverDisjoint(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 2048, 2049, 123457} {
		for _, grain := range []int{0, 1, 3, 100, 4096} {
			bounds := Blocks(n, grain)
			if bounds[0] != 0 || bounds[len(bounds)-1] != n {
				t.Fatalf("n=%d grain=%d: bad endpoints %v", n, grain, bounds)
			}
			for b := 1; b < len(bounds); b++ {
				if bounds[b] <= bounds[b-1] {
					t.Fatalf("n=%d grain=%d: non-increasing bounds %v", n, grain, bounds)
				}
			}
		}
	}
}

// TestPrefixBlocksBalanceWeight: PrefixBlocks tiles [0, n) with increasing
// bounds into blocks of at most its cap, max(grain, weight/(4·workers)),
// unless one index alone outweighs it, with any two adjacent blocks over the
// cap — so at most 2·weight/cap + 1 blocks — and one block on one worker:
// on skewed weights (one index holding most of them), runs of empty
// indices, and no weight at all.
func TestPrefixBlocksBalanceWeight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	weights := map[string][]int64{"skewed": {}, "uniform": {}, "empty-runs": {}, "zero": make([]int64, 100)}
	for i := 0; i < 1000; i++ {
		weights["uniform"] = append(weights["uniform"], 7)
		weights["skewed"] = append(weights["skewed"], int64(1000-i))
		weights["empty-runs"] = append(weights["empty-runs"], int64(i%50/49)*100)
	}
	weights["skewed"][3] = 500_000
	for name, w := range weights {
		prefix := make([]int64, len(w)+1)
		for i, x := range w {
			prefix[i+1] = prefix[i] + x
		}
		total := prefix[len(w)]
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, grain := range []int64{0, 1, 100, 1 << 40} {
				bounds := PrefixBlocks(prefix, grain)
				if bounds[0] != 0 || bounds[len(bounds)-1] != len(w) {
					t.Fatalf("%s procs=%d grain=%d: bad endpoints %v", name, procs, grain, bounds)
				}
				if procs == 1 && len(bounds) != 2 {
					t.Fatalf("%s grain=%d: %d blocks on one worker", name, grain, len(bounds)-1)
				}
				if grain == 0 {
					grain = DefaultGrain
				}
				limit := max(grain, total/int64(4*procs))
				for b := 1; b < len(bounds); b++ {
					lo, hi := bounds[b-1], bounds[b]
					if hi <= lo {
						t.Fatalf("%s procs=%d grain=%d: non-increasing bounds %v", name, procs, grain, bounds)
					}
					if wb := prefix[hi] - prefix[lo]; procs > 1 && wb > limit && hi-lo > 1 {
						t.Fatalf("%s procs=%d grain=%d: block [%d,%d) weighs %d, over %d", name, procs, grain, lo, hi, wb, limit)
					}
					if b > 1 && procs > 1 && prefix[hi]-prefix[bounds[b-2]] <= limit {
						t.Fatalf("%s procs=%d grain=%d: blocks %d and %d fit in one", name, procs, grain, b-2, b-1)
					}
				}
			}
		}
	}
	if got := PrefixBlocks([]int64{0}, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("no indices: bounds %v", got)
	}
}

func TestForBlocksVisitsEachBlockOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	n := 100003
	bounds := Blocks(n, 64)
	visits := make([]int32, len(bounds)-1)
	covered := make([]int32, n)
	ForBlocks(bounds, func(b, lo, hi int) {
		atomic.AddInt32(&visits[b], 1)
		if lo != bounds[b] || hi != bounds[b+1] {
			t.Errorf("block %d got [%d,%d) want [%d,%d)", b, lo, hi, bounds[b], bounds[b+1])
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for b, c := range visits {
		if c != 1 {
			t.Fatalf("block %d visited %d times", b, c)
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	counts := []int64{3, 0, 2, 5}
	total := ExclusiveScan(counts)
	if total != 10 {
		t.Fatalf("total=%d want 10", total)
	}
	want := []int64{0, 3, 3, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts[%d]=%d want %d", i, counts[i], want[i])
		}
	}
	if ExclusiveScan(nil) != 0 {
		t.Fatal("empty scan should be 0")
	}
}

func TestExclusiveScanProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		orig := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			orig[i] = int64(v)
			want += int64(v)
		}
		scanned := append([]int64(nil), orig...)
		total := ExclusiveScan(scanned)
		if total != want {
			return false
		}
		var run int64
		for i := range orig {
			if scanned[i] != run {
				return false
			}
			run += orig[i]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExclusiveScanDifferential proves the parallel scan bit-identical to
// the sequential scan over randomized lengths and grains, including the
// degenerate geometries (n = 0, n = 1, n below the grain, n below the worker
// count, and n that forces many blocks).
func TestExclusiveScanDifferential(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	lengths := []int{0, 1, 2, 3, 7, 8, 100, 1000, 65537, 200000}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, int(next()%300000))
	}
	grains := []int{1, 2, 7, 64, 1000, 200000, scanGrain, 0 /* default */}
	for _, n := range lengths {
		orig := make([]int64, n)
		for i := range orig {
			// Mix of zeros, small and large values, including negatives
			// (the scan is defined for any int64 summands).
			v := int64(next() % 1000)
			if v > 900 {
				v = -v
			}
			if v < 100 {
				v = 0
			}
			orig[i] = v
		}
		want := append([]int64(nil), orig...)
		wantTotal := exclusiveScanSeq(want)
		for _, grain := range grains {
			got := append([]int64(nil), orig...)
			gotTotal := exclusiveScan(got, grain)
			if gotTotal != wantTotal {
				t.Fatalf("n=%d grain=%d: total %d want %d", n, grain, gotTotal, wantTotal)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d grain=%d: scan[%d]=%d want %d", n, grain, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelPathsUnderRaisedGOMAXPROCS forces the multi-worker code paths
// even on single-CPU machines (GOMAXPROCS may exceed the core count).
func TestParallelPathsUnderRaisedGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	if Workers() != 8 {
		t.Fatalf("Workers()=%d want 8", Workers())
	}
	n := 100000
	seen := make([]int32, n)
	For(n, 16, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}

	var visited int64
	WorkerFor(n, 64, func(worker, lo, hi int) {
		if worker < 0 || worker >= 8 {
			t.Errorf("worker %d out of range", worker)
		}
		atomic.AddInt64(&visited, int64(hi-lo))
	})
	if visited != int64(n) {
		t.Fatalf("visited %d want %d", visited, n)
	}

	var want float64
	for i := 0; i < n; i++ {
		want += float64(i)
	}
	got := ReduceFloat64Det(n, func(i int) float64 { return float64(i) })
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("parallel reduce %g want %g", got, want)
	}
}

// TestMaxFloat64MatchesSequential: the parallel max must equal the serial
// fold exactly for every geometry — max is order-independent.
func TestMaxFloat64MatchesSequential(t *testing.T) {
	vals := make([]float64, 100001)
	x := 1.0
	for i := range vals {
		x = math.Mod(x*1.3+0.7, 1000) // deterministic, sign-varying
		vals[i] = x - 500
	}
	for _, n := range []int{0, 1, 7, 1000, len(vals)} {
		for _, grain := range []int{1, 64, 1 << 14} {
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				want := math.Inf(-1)
				for i := 0; i < n; i++ {
					if vals[i] > want {
						want = vals[i]
					}
				}
				if n == 0 {
					want = math.Inf(-1)
				}
				got := MaxFloat64(n, grain, math.Inf(-1), func(i int) float64 { return vals[i] })
				runtime.GOMAXPROCS(prev)
				if got != want {
					t.Fatalf("n=%d grain=%d procs=%d: got %v want %v", n, grain, procs, got, want)
				}
			}
		}
	}
	// The identity floors the result for empty and all-smaller inputs.
	if got := MaxFloat64(0, 16, 42, func(int) float64 { return 0 }); got != 42 {
		t.Fatalf("empty: got %v want identity 42", got)
	}
	if got := MaxFloat64(10, 4, 42, func(i int) float64 { return float64(i) }); got != 42 {
		t.Fatalf("identity dominates: got %v want 42", got)
	}
}

func TestDetBoundsPureFunctionOfN(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 123457} {
		runtime.GOMAXPROCS(1)
		a := DetBounds(n)
		runtime.GOMAXPROCS(4)
		b := DetBounds(n)
		if len(a) != len(b) {
			t.Fatalf("n=%d: bounds depend on GOMAXPROCS", n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: bounds depend on GOMAXPROCS at %d", n, i)
			}
		}
		// Cover and order.
		if a[0] != 0 || a[len(a)-1] != n && n > 0 {
			t.Fatalf("n=%d: bad endpoints %v", n, a)
		}
		for i := 1; i < len(a); i++ {
			if a[i] <= a[i-1] {
				t.Fatalf("n=%d: non-increasing bounds %v", n, a)
			}
		}
	}
}

func TestReduceFloat64DetBitIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 63, 64, 65, 1000, 123457} {
		vals := make([]float64, n)
		s := uint64(12345)
		for i := range vals {
			s = s*6364136223846793005 + 1442695040888963407
			vals[i] = float64(int64(s>>20)) * 1e-9
		}
		var ref float64
		first := true
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := ReduceFloat64Det(n, func(i int) float64 { return vals[i] })
			if first {
				ref = got
				first = false
				continue
			}
			if got != ref {
				t.Fatalf("n=%d procs=%d: %v != %v", n, procs, got, ref)
			}
		}
		// Sanity: close to the sequential sum.
		var seq float64
		for _, v := range vals {
			seq += v
		}
		if math.Abs(ref-seq) > 1e-6*math.Abs(seq)+1e-12 {
			t.Fatalf("n=%d: det sum %v far from sequential %v", n, ref, seq)
		}
	}
}

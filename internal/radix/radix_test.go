package radix

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"lightne/internal/rng"
)

func TestSortPairsMatchesStdlib(t *testing.T) {
	s := rng.New(1, 0)
	for _, n := range []int{0, 1, 2, 10, 1000, 100000} {
		keys := make([]uint64, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = s.Uint64() >> uint(s.Intn(60)) // vary magnitudes
			vals[i] = float64(keys[i] % 97)
		}
		type pair struct {
			k uint64
			v float64
		}
		ref := make([]pair, n)
		for i := range ref {
			ref[i] = pair{keys[i], vals[i]}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
		SortPairs(keys, vals)
		for i := range keys {
			if keys[i] != ref[i].k || vals[i] != ref[i].v {
				t.Fatalf("n=%d: mismatch at %d: (%d,%g) vs (%d,%g)", n, i, keys[i], vals[i], ref[i].k, ref[i].v)
			}
		}
	}
}

func TestSortPairsStability(t *testing.T) {
	// Equal keys must keep payload order (stability).
	keys := []uint64{5, 1, 5, 1, 5}
	vals := []float64{0, 10, 1, 11, 2}
	SortPairs(keys, vals)
	want := []float64{10, 11, 0, 1, 2}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("stability broken: %v", vals)
		}
	}
}

func TestSortPairsPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SortPairs(make([]uint64, 3), make([]float64, 2))
}

func TestGroupSum(t *testing.T) {
	keys := []uint64{7, 3, 7, 3, 9}
	vals := []float64{1, 2, 0.5, 3, 4}
	n := GroupSum(keys, vals)
	if n != 3 {
		t.Fatalf("groups=%d want 3", n)
	}
	got := map[uint64]float64{}
	for i := 0; i < n; i++ {
		got[keys[i]] = vals[i]
	}
	if math.Abs(got[7]-1.5) > 1e-12 || math.Abs(got[3]-5) > 1e-12 || got[9] != 4 {
		t.Fatalf("GroupSum wrong: %v", got)
	}
	// Sorted output.
	for i := 1; i < n; i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("GroupSum output not sorted")
		}
	}
}

func TestSortPairsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		keys := make([]uint64, len(raw))
		vals := make([]float64, len(raw))
		var checksum float64
		for i, r := range raw {
			keys[i] = uint64(r)
			vals[i] = float64(r) * 0.5
			checksum += vals[i]
		}
		SortPairs(keys, vals)
		var after float64
		for i := range keys {
			after += vals[i]
			if i > 0 && keys[i-1] > keys[i] {
				return false
			}
			// Payload still matches its key.
			if vals[i] != float64(keys[i])*0.5 {
				return false
			}
		}
		return math.Abs(after-checksum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortPairs(b *testing.B) {
	s := rng.New(9, 0)
	n := 1 << 20
	base := make([]uint64, n)
	baseV := make([]float64, n)
	for i := range base {
		base[i] = s.Uint64()
		baseV[i] = float64(i)
	}
	keys := make([]uint64, n)
	vals := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		copy(vals, baseV)
		SortPairs(keys, vals)
	}
	b.SetBytes(int64(n * 16))
}

func BenchmarkStdlibSortPairs(b *testing.B) {
	s := rng.New(9, 0)
	n := 1 << 20
	type pair struct {
		k uint64
		v float64
	}
	base := make([]pair, n)
	for i := range base {
		base[i] = pair{s.Uint64(), float64(i)}
	}
	work := make([]pair, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		sort.Slice(work, func(a, c int) bool { return work[a].k < work[c].k })
	}
	b.SetBytes(int64(n * 16))
}

func TestSortKeysMatchesStdlib(t *testing.T) {
	s := rng.New(21, 0)
	families := []func() uint64{
		func() uint64 { return s.Uint64() >> uint(s.Intn(56)) },
		// Packed arcs whose middle bytes all agree (and are nonzero): Sort
		// skips those passes.
		func() uint64 { return uint64(s.Intn(5000))<<32 | 0xab<<16 | uint64(s.Intn(5000)) },
	}
	for f, key := range families {
		for _, n := range []int{0, 1, 3, 1000, 50000} {
			keys := make([]uint64, n)
			ref := make([]uint64, n)
			for i := range keys {
				keys[i] = key()
				ref[i] = keys[i]
			}
			Sort(keys)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for i := range keys {
				if keys[i] != ref[i] {
					t.Fatalf("family %d, n=%d: mismatch at %d", f, n, i)
				}
			}
		}
	}
}

func TestGroupCSR(t *testing.T) {
	s := rng.New(63, 0)
	const numRows = 300
	for _, n := range []int{0, 1, 5, 1000, 40000} {
		keys := make([]uint64, n)
		vals := make([]float64, n)
		perRow := make([]int64, numRows)
		for i := range keys {
			u := uint64(s.Intn(numRows))
			v := uint64(s.Intn(1 << 20))
			keys[i] = u<<32 | v
			vals[i] = float64(i)
			perRow[u]++
		}
		rowPtr := GroupCSR(keys, vals, numRows)
		if len(rowPtr) != numRows+1 {
			t.Fatalf("n=%d: rowPtr len %d", n, len(rowPtr))
		}
		if rowPtr[0] != 0 || rowPtr[numRows] != int64(n) {
			t.Fatalf("n=%d: endpoints %d..%d", n, rowPtr[0], rowPtr[numRows])
		}
		for r := 0; r < numRows; r++ {
			if rowPtr[r+1]-rowPtr[r] != perRow[r] {
				t.Fatalf("n=%d row %d: %d entries want %d", n, r, rowPtr[r+1]-rowPtr[r], perRow[r])
			}
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				if int(keys[p]>>32) != r {
					t.Fatalf("n=%d: entry %d in wrong row group", n, p)
				}
				if p > rowPtr[r] && keys[p] < keys[p-1] {
					t.Fatalf("n=%d row %d: keys not sorted", n, r)
				}
			}
		}
	}
}

func TestGroupCSREmptyEdgeRows(t *testing.T) {
	// Leading, trailing, and interior empty rows must all get correct
	// (empty) ranges from the parallel boundary fill.
	keys := []uint64{5<<32 | 1, 5<<32 | 9, 9<<32 | 0}
	vals := []float64{1, 2, 3}
	rowPtr := GroupCSR(keys, vals, 12)
	want := []int64{0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3}
	if len(rowPtr) != len(want) {
		t.Fatalf("rowPtr len %d want %d", len(rowPtr), len(want))
	}
	for i := range want {
		if rowPtr[i] != want[i] {
			t.Fatalf("rowPtr[%d]=%d want %d (%v)", i, rowPtr[i], want[i], rowPtr)
		}
	}
}

func TestGroupCSRPanicsOnRowOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range row")
		}
	}()
	GroupCSR([]uint64{7 << 32}, []float64{1}, 7)
}

// randomEdgeKeys builds n packed (row, col) keys over the given row/col
// space, with payloads tied to the key so mismatches are detectable.
func randomEdgeKeys(s *rng.Source, n, rows, cols int) ([]uint64, []float64) {
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(s.Intn(rows))<<32 | uint64(s.Intn(cols))
		vals[i] = float64(i) + float64(keys[i]%31)/7
	}
	return keys, vals
}

// TestSortGeometryInvariance: the chunk geometry now derives from par.Blocks
// (worker-count dependent), so prove sorted output identical across worker
// counts, including payload order for duplicate keys (stability is geometry
// independent).
func TestSortGeometryInvariance(t *testing.T) {
	s := rng.New(11, 0)
	n := 150000
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = uint64(s.Intn(500))<<32 | uint64(s.Intn(500))
		vals[i] = float64(i)
	}
	var refK []uint64
	var refV []float64
	for _, procs := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		gotK := append([]uint64(nil), keys...)
		gotV := append([]float64(nil), vals...)
		SortPairs(gotK, gotV)
		runtime.GOMAXPROCS(old)
		if refK == nil {
			refK, refV = gotK, gotV
			continue
		}
		for i := range refK {
			if gotK[i] != refK[i] || gotV[i] != refV[i] {
				t.Fatalf("GOMAXPROCS=%d: output differs at %d", procs, i)
			}
		}
	}
}

func BenchmarkGroupCSR(b *testing.B) {
	s := rng.New(3, 0)
	n, rows := 1<<20, 1<<16
	keys, vals := randomEdgeKeys(s, n, rows, 1<<20)
	work := make([]uint64, n)
	workV := make([]float64, n)
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		GroupCSR(work, workV, rows)
	}
}

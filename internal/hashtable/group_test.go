package hashtable_test

import (
	"runtime"
	"slices"
	"testing"

	"lightne/internal/hashtable"
	"lightne/internal/rng"
)

// keysCase is one input of the keys-only grouping tests.
type keysCase struct {
	name    string
	keys    []uint64
	numRows int
}

// keysCases are the keys-only inputs: the sampled RMAT-12 pairs, each
// twice; rows and columns that need 64-bit bucket keys together (more than
// 65 536 rows); mostly empty rows; heavy duplication; packed arcs whose
// middle bytes all agree; no keys over no rows.
func keysCases() []keysCase {
	h := harnessPairs()
	wide, _ := syntheticPairs(4, 50000, 100000, 1<<20, 99999, 0.1)
	sparse, _ := syntheticPairs(5, 40, 5000, 5000, 0, 0)
	dup, _ := syntheticPairs(6, 30000, 40, 30, 3, 0.5)
	s := rng.New(21, 0)
	agree := make([]uint64, 50000)
	for i := range agree {
		agree[i] = uint64(s.Intn(5000))<<32 | 0xab<<16 | uint64(s.Intn(5000))
	}
	return []keysCase{
		{"rmat12", append(slices.Clone(h.keys), h.keys...), h.g.NumVertices()},
		{"wide", wide, 100000},
		{"empty-rows", sparse, 5000},
		{"duplicated", dup, 40},
		{"agreeing-bytes", agree, 5000},
		{"no-rows", nil, 0},
	}
}

// groupKeysOracle groups keys with the standard library: sort, drop
// repeats, count the rows.
func groupKeysOracle(keys []uint64, numRows int) (rowPtr []int64, cols []uint32) {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	rowPtr, cols = make([]int64, numRows+1), make([]uint32, len(sorted))
	for i, k := range sorted {
		rowPtr[k>>32+1]++
		cols[i] = uint32(k)
	}
	for r := 0; r < numRows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return rowPtr, cols
}

// TestGroupCSRKeysOnly: without weights, GroupCSR returns the rows and
// columns of the weighted call on the same keys and a nil ws, at every
// GOMAXPROCS, and leaves the keys as they were.
func TestGroupCSRKeysOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range keysCases() {
		fixed := make([]uint64, len(c.keys))
		for i := range fixed {
			fixed[i] = uint64(i + 1)
		}
		wantPtr, wantCols, _ := hashtable.GroupCSR(c.keys, fixed, c.numRows)
		before := slices.Clone(c.keys)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rowPtr, cols, ws := hashtable.GroupCSR(c.keys, nil, c.numRows)
			if ws != nil || !slices.Equal(rowPtr, wantPtr) || !slices.Equal(cols, wantCols) {
				t.Fatalf("procs=%d %s: keys-only grouping differs from the weighted one", procs, c.name)
			}
		}
		if !slices.Equal(c.keys, before) {
			t.Fatalf("%s: GroupCSR modified its keys", c.name)
		}
	}
}

// TestGroupCSRKeysOnlyMatchesStdlib pins the keys-only grouping to a sort
// and compaction by the standard library.
func TestGroupCSRKeysOnlyMatchesStdlib(t *testing.T) {
	for _, c := range keysCases() {
		wantPtr, wantCols := groupKeysOracle(c.keys, c.numRows)
		rowPtr, cols, _ := hashtable.GroupCSR(c.keys, nil, c.numRows)
		if !slices.Equal(rowPtr, wantPtr) || !slices.Equal(cols, wantCols) {
			t.Fatalf("%s: grouping differs from the stdlib oracle", c.name)
		}
	}
}

// TestGroupCSREmptyEdgeRows: leading, trailing and interior empty rows get
// empty ranges, with and without weights.
func TestGroupCSREmptyEdgeRows(t *testing.T) {
	keys := []uint64{5<<32 | 1, 5<<32 | 9, 9<<32 | 0}
	want := []int64{0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3}
	for _, fixed := range [][]uint64{nil, {1, 2, 3}} {
		rowPtr, cols, _ := hashtable.GroupCSR(keys, fixed, 12)
		if !slices.Equal(rowPtr, want) || !slices.Equal(cols, []uint32{1, 9, 0}) {
			t.Fatalf("weighted=%v: rowPtr %v cols %v", fixed != nil, rowPtr, cols)
		}
	}
}

// TestGroupCSRPanicsOnRowOverflow: a row >= numRows panics, with and
// without weights — past the last bucket, inside the last bucket's row
// range, and with no rows at all.
func TestGroupCSRPanicsOnRowOverflow(t *testing.T) {
	for _, c := range []struct {
		numRows int
		row     uint32
		pairs   int
	}{{0, 0, 1}, {7, 7, 1}, {257, 257, 40000}, {257, 300, 40000}, {1000, 1 << 30, 40000}, {4096, 0xfffffffe, 3}} {
		keys, fixed := syntheticPairs(3, c.pairs, max(c.numRows, 1), 1000, 0, 0)
		keys = append(keys, hashtable.Key(c.row, 7))
		fixed = append(fixed, 1)
		for _, fixed := range [][]uint64{nil, fixed} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("numRows=%d row=%d weighted=%v: no panic", c.numRows, c.row, fixed != nil)
					}
				}()
				hashtable.GroupCSR(keys, fixed, c.numRows)
			}()
		}
	}
}

// TestGroupCSRPanicsOnLengthMismatch: weights, when given, pair up with the
// keys one to one.
func TestGroupCSRPanicsOnLengthMismatch(t *testing.T) {
	for _, fixed := range [][]uint64{make([]uint64, 2), {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d weights for 3 keys: no panic", len(fixed))
				}
			}()
			hashtable.GroupCSR(make([]uint64, 3), fixed, 1)
		}()
	}
}

// TestGroupCSRGeometryInvariance: the block and bucket geometry follows the
// worker count, but the arrays do not, with or without weights.
func TestGroupCSRGeometryInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys, fixed := syntheticPairs(11, 150000, 500, 500, 0, 0)
	for _, fixed := range [][]uint64{nil, fixed} {
		runtime.GOMAXPROCS(1)
		wantPtr, wantCols, wantWs := hashtable.GroupCSR(keys, fixed, 500)
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			rowPtr, cols, ws := hashtable.GroupCSR(keys, fixed, 500)
			if !slices.Equal(rowPtr, wantPtr) || !slices.Equal(cols, wantCols) || !slices.Equal(ws, wantWs) {
				t.Fatalf("procs=%d weighted=%v: arrays differ from GOMAXPROCS=1", procs, fixed != nil)
			}
		}
	}
}

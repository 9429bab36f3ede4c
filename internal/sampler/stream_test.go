package sampler

import (
	"testing"

	"lightne/internal/hashtable"
)

// streamFixture groups a deterministic scatter of keys including empty
// rows, a heavy row, and duplicate accumulation, and returns the grouped
// row pointers.
func streamFixture(n int) []int64 {
	var keys, fixed []uint64
	s := uint64(99)
	for i := 0; i < 5000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := uint32(s>>40) % uint32(n)
		v := uint32(s>>8) % uint32(n)
		if i%7 == 0 {
			u = 3 // heavy row
		}
		keys, fixed = append(keys, hashtable.Key(u, v)), append(fixed, (s%1000)+1)
	}
	rowPtr, _, _ := hashtable.GroupCSR(keys, fixed, n)
	return rowPtr
}

func TestChunkRowsBoundaries(t *testing.T) {
	// Rows with entry counts 3, 0, 5, 10, 1, 0.
	rowPtr := []int64{0, 3, 3, 8, 18, 19, 19}
	for _, tc := range []struct {
		max  int64
		want []int
	}{
		{1 << 30, []int{0, 6}},       // everything fits in one chunk
		{8, []int{0, 3, 4, 6}},       // rows {0,1,2}, oversized {3}, {4,5}
		{1, []int{0, 1, 2, 3, 4, 6}}, // row-at-a-time; only trailing empty row 5 merges
		{0, []int{0, 1, 2, 3, 4, 6}}, // max < 1 clamps to 1
		{3, []int{0, 2, 3, 4, 6}},    // row 0 + empty row 1, then {2}, {3}, {4,5}
	} {
		got := ChunkRows(rowPtr, tc.max)
		if len(got) != len(tc.want) {
			t.Fatalf("max=%d: bounds %v want %v", tc.max, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("max=%d: bounds %v want %v", tc.max, got, tc.want)
			}
		}
		// Every chunk respects the cap unless it is a single oversized row.
		max := tc.max
		if max < 1 {
			max = 1
		}
		for c := 0; c+1 < len(got); c++ {
			lo, hi := got[c], got[c+1]
			if n := rowPtr[hi] - rowPtr[lo]; n > max && hi-lo > 1 {
				t.Fatalf("max=%d: chunk [%d,%d) holds %d entries", tc.max, lo, hi, n)
			}
		}
	}
	if got := ChunkRows([]int64{0}, 4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty matrix bounds %v", got)
	}
}

// TestChunkRowsTilesDrain pins the streaming contract on a real drain: for
// every chunk size the chunks tile [0, n) in row order and their entry counts
// sum to the drained total.
func TestChunkRowsTilesDrain(t *testing.T) {
	const n = 64
	rowPtr := streamFixture(n)
	for _, max := range []int64{1, 13, 100, 1 << 40} {
		bounds := ChunkRows(rowPtr, max)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("max=%d: chunks cover [%d,%d), want [0,%d)", max, bounds[0], bounds[len(bounds)-1], n)
		}
		var seen int64
		for c := 0; c+1 < len(bounds); c++ {
			if bounds[c+1] <= bounds[c] {
				t.Fatalf("max=%d: chunk %d is [%d,%d)", max, c, bounds[c], bounds[c+1])
			}
			seen += rowPtr[bounds[c+1]] - rowPtr[bounds[c]]
		}
		if seen != rowPtr[n] {
			t.Fatalf("max=%d: chunks hold %d entries, drain has %d", max, seen, rowPtr[n])
		}
	}
}

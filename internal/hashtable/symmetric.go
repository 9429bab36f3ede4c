package hashtable

import "lightne/internal/par"

// SymmetricPair is the one pair a symmetric sample of (u, v) deposits for
// GroupUpperCSR: the key of its endpoints in ascending order, with its
// fixed-point weight, doubled when u == v, where both orientations land on
// one key. In uint64 arithmetic the doubled weight equals the sum of the two
// oriented pairs, wraparound included.
func SymmetricPair(u, v uint32, fixed uint64) (key, f uint64) {
	if u == v {
		return Key(u, v), 2 * fixed
	}
	return Key(min(u, v), max(u, v)), fixed
}

// GroupUpperCSR groups one-orientation pairs into the upper triangle
// (diagonal included) of the symmetric CSR their two orientations make.
// Each key (u, v) has u <= v and stands for (u, v) and (v, u), each with its
// weight; SymmetricPair builds such pairs. The pairs are given as segments,
// keys[i] with fixed[i], which are read where they lie, never concatenated,
// and not modified. The grouping is GroupCSR's bucket sort, and Mirror of
// its arrays equals GroupCSR's on the pairs in both orientations, bit for
// bit, since a key's two orientations carry the same fixed-point sum. It
// panics if a key has u > v, if a vertex is >= numRows, or if a segment's
// weights do not pair up with its keys.
func GroupUpperCSR(keys, fixed [][]uint64, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	if fixed == nil {
		panic("hashtable: GroupUpperCSR needs weights")
	}
	rowPtr, cols, ws = groupSegments(keys, fixed, numRows)
	checkUpper(rowPtr, cols)
	return rowPtr, cols, ws
}

// checkUpper panics unless each row of the column-sorted CSR (ptr, cols)
// starts at or past the diagonal and ends inside the matrix.
func checkUpper(ptr []int64, cols []uint32) {
	n := len(ptr) - 1
	for r := 0; r < n; r++ {
		if p, end := ptr[r], ptr[r+1]; p < end && (cols[p] < uint32(r) || int(cols[end-1]) >= n) {
			panic("hashtable: key below the diagonal or vertex out of range")
		}
	}
}

// Mirror returns the symmetric CSR whose upper triangle, diagonal included,
// is (ptr, cols, ws), a column-sorted CSR such as GroupUpperCSR returns, in
// fresh arrays: each full row is the row's entries below the diagonal,
// which are the upper triangle's column r in ascending row order, followed
// by its upper row. It panics if an entry lies below the diagonal or past
// the last row.
//
// Rows are cut into blocks of about equal entry counts (par.PrefixBlocks),
// each with one counter per column and any two adjacent ones holding more
// than n entries, so the counters number at most twice the entries plus n.
// A first pass counts each block's entries per column, a pass over the
// columns turns the counts into per-block cursors and row lengths, and a
// second pass over the blocks copies each upper row into place and writes
// each of its entries above the diagonal, transposed, at its column's
// cursor (a diagonal entry, counted in its own column last, moves no cursor
// that is read after it). Blocks run in row order, so each row's transposed
// entries land in ascending column order, whatever the cut.
func Mirror(ptr []int64, cols []uint32, ws []float64) ([]int64, []uint32, []float64) {
	checkUpper(ptr, cols)
	n := len(ptr) - 1
	bounds := par.PrefixBlocks(ptr, int64(max(n, 1)))
	cnt := make([]uint32, (len(bounds)-1)*n)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		for _, col := range cols[ptr[lo]:ptr[hi]] {
			cnt[b*n+int(col)]++
		}
	})
	rowPtr := make([]int64, n+1)
	par.ForRange(n, drainGrain, func(lo, hi int) {
		for col := lo; col < hi; col++ {
			var below uint32
			for i := col; i < len(cnt); i += n {
				cnt[i], below = below, below+cnt[i]
			}
			// below counts the diagonal entry too, which the row holds once.
			rowPtr[col] = int64(below) + ptr[col+1] - ptr[col]
			if ptr[col] < ptr[col+1] && cols[ptr[col]] == uint32(col) {
				rowPtr[col]--
			}
		}
	})
	rowPtr[n] = par.ExclusiveScan(rowPtr[:n])
	outCols, outWs := make([]uint32, rowPtr[n]), make([]float64, rowPtr[n])
	par.ForBlocks(bounds, func(b, lo, hi int) {
		c := cnt[b*n : (b+1)*n]
		for r := lo; r < hi; r++ {
			at := rowPtr[r+1] - (ptr[r+1] - ptr[r])
			copy(outCols[at:], cols[ptr[r]:ptr[r+1]])
			copy(outWs[at:], ws[ptr[r]:ptr[r+1]])
			for p := ptr[r]; p < ptr[r+1]; p++ {
				if col := cols[p]; col != uint32(r) {
					q := rowPtr[col] + int64(c[col])
					c[col]++
					outCols[q], outWs[q] = uint32(r), ws[p]
				}
			}
		}
	})
	return rowPtr, outCols, outWs
}

package sampler

// Streaming hand-off from the aggregation sink to a chunk consumer. The
// single-pass sketched factorization wants to absorb the sparsifier as it
// leaves the sink instead of holding a second, scaled copy of the CSR.
// GroupSymmetricCSR's buckets must all be sorted before every row's
// final content exists, so "streaming" here means: after grouping, the
// consumer (core.EmbedTable) walks the rows in bounded whole-row chunks that
// it transforms (scale + trunc-log) and absorbs one at a time, never
// materializing the scaled matrix.

// ChunkRows splits the rows of a CSR row-pointer array into whole-row chunks
// of at most maxEntries entries and returns the row boundaries: chunk c is
// rows [bounds[c], bounds[c+1]). A single row larger than maxEntries forms
// its own chunk (rows are never split — whole-row chunks are what make
// downstream sketch absorption order-independent). The result is a pure
// function of (rowPtr, maxEntries): no worker count or wave size enters, so
// chunk boundaries are deterministic whenever the drained CSR is.
func ChunkRows(rowPtr []int64, maxEntries int64) []int {
	numRows := len(rowPtr) - 1
	if maxEntries < 1 {
		maxEntries = 1
	}
	bounds := make([]int, 1, 8)
	lo := 0
	for lo < numRows {
		hi := lo + 1
		for hi < numRows && rowPtr[hi+1]-rowPtr[lo] <= maxEntries {
			hi++
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	return bounds
}

package sampler

import "lightne/internal/par"

// ChunkRows splits the rows of a CSR row-pointer array into whole-row chunks
// of at most maxEntries entries (a larger row is a chunk of its own) and
// returns the row boundaries: chunk c is rows [bounds[c], bounds[c+1]). The
// result is a pure function of (rowPtr, maxEntries). No path of the
// pipeline streams: the sparsifier is built once from the upper triangle
// (netsmf.Sparsifier) and the sketch absorbs it whole, so the raw full CSR
// is never written. ChunkRows stays for the benchmark harness, whose traced
// recomposition transforms a full drain (DrainCSR) chunk by chunk.
func ChunkRows(rowPtr []int64, maxEntries int64) []int {
	return par.CutPrefix(rowPtr, max(maxEntries, 1))
}

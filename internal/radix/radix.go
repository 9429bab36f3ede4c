// Package radix implements a parallel least-significant-digit radix sort
// for (uint64 key, float64 payload) pairs — the "partial radix-sort"
// machinery the paper cites (Kiriansky et al. [13], and Gu et al.'s
// semisort [8]) as the alternative to hashing for aggregating samples
// (§4.2). It backs the list-histogram aggregation strategy and is exposed
// for any (key, weight) grouping workload.
//
// The sort is stable, runs one counting pass per byte that can matter (the
// full sorts skip bytes on which all keys agree),
// and parallelizes both the histogram and the scatter of each pass over
// contiguous chunks (per-chunk digit counts give each chunk a disjoint
// write region, so the scatter is race-free and stability is preserved).
// Chunk geometry comes from par.Blocks, the package-wide single source of
// truth, so the pass parallelism scales with the worker count instead of
// capping at a fixed chunk count.
package radix

import "lightne/internal/par"

// passGrain is the minimum chunk length of a counting pass. Each chunk pays
// a 2 KB digit-count array per pass, so chunks are kept a few thousand
// elements wide; par.Blocks then targets ~4 chunks per worker above that
// floor.
const passGrain = 4096

// SortPairs sorts keys ascending, permuting vals alongside. len(vals) must
// equal len(keys). The slices are sorted in place (an internal buffer of
// equal size is allocated). The sort is stable: equal keys keep their input
// order.
func SortPairs(keys []uint64, vals []float64) {
	if len(keys) != len(vals) {
		panic("radix: keys and vals must have equal length")
	}
	// A byte on which every key agrees cannot change the order, so its pass
	// is skipped: packed (row<<32|col) keys with fewer than 2^16 rows and
	// columns sort in four passes, not six.
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	if differ == 0 {
		return
	}
	n := len(keys)
	bounds := par.Blocks(n, passGrain)
	bufK := make([]uint64, n)
	bufV := make([]float64, n)
	srcK, srcV := keys, vals
	dstK, dstV := bufK, bufV
	for b := 0; b < 8; b++ {
		if differ>>(8*b)&0xff == 0 {
			continue
		}
		countingPass(srcK, srcV, dstK, dstV, uint(8*b), bounds)
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// countingPass performs one stable 8-bit counting pass from src to dst over
// the chunk geometry in bounds (shared by every pass of a sort so per-chunk
// indices line up).
func countingPass(srcK []uint64, srcV []float64, dstK []uint64, dstV []float64, shift uint, bounds []int) {
	chunks := len(bounds) - 1
	// counts[c][d]: occurrences of digit d in chunk c.
	counts := make([][256]int64, chunks)
	par.ForBlocks(bounds, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[c][(srcK[i]>>shift)&0xff]++
		}
	})
	offsets := passOffsets(counts)
	par.ForBlocks(bounds, func(c, lo, hi int) {
		var next [256]int64
		for d := 0; d < 256; d++ {
			next[d] = offsets[d*chunks+c]
		}
		for i := lo; i < hi; i++ {
			d := (srcK[i] >> shift) & 0xff
			p := next[d]
			next[d]++
			dstK[p] = srcK[i]
			dstV[p] = srcV[i]
		}
	})
}

// passOffsets turns per-chunk digit counts into global stable write offsets,
// digit-major and chunk-minor: offsets[d*chunks+c] is where chunk c starts
// writing digit d.
func passOffsets(counts [][256]int64) []int64 {
	chunks := len(counts)
	offsets := make([]int64, 256*chunks)
	var total int64
	for d := 0; d < 256; d++ {
		for c := 0; c < chunks; c++ {
			offsets[d*chunks+c] = total
			total += counts[c][d]
		}
	}
	return offsets
}

// GroupSum sorts the pairs and sums payloads of equal keys in place,
// returning the compacted length: the semisort-style "histogram" operation
// used to merge per-worker sample lists.
func GroupSum(keys []uint64, vals []float64) int {
	SortPairs(keys, vals)
	out := 0
	for i := 0; i < len(keys); {
		j := i
		var sum float64
		for j < len(keys) && keys[j] == keys[i] {
			sum += vals[j]
			j++
		}
		keys[out] = keys[i]
		vals[out] = sum
		out++
		i = j
	}
	return out
}

// GroupCSR partitions (key, payload) pairs by the key's high 32 bits — the
// source vertex of a packed edge — using the package's parallel LSD sort,
// and returns the CSR row-pointer array over numRows rows. keys and vals are
// sorted ascending in place, so within each row the low 32 bits (the
// destination vertex) come out sorted as well: exactly the row-grouped,
// column-sorted layout sparse.CSR expects, with no per-row comparison sort.
// Because the full key is sorted, the output layout is a pure function of
// the input multiset — the deterministic variant to use when reproducible
// artifacts matter or a consumer binary-searches rows (sparse.CSR.At).
//
// Every key's high 32 bits must be < numRows; GroupCSR panics otherwise
// (the keys are checked after the sort, where the maximum is the last key).
func GroupCSR(keys []uint64, vals []float64, numRows int) []int64 {
	SortPairs(keys, vals)
	return rowPtrFromGrouped(keys, numRows)
}

// rowPtrFromGrouped builds the CSR row-pointer array over keys already
// grouped by their high 32 bits in ascending order. Row r starts at the
// first index whose key's high bits are >= r. Each boundary between
// consecutive distinct rows is found independently, so the fill parallelizes
// over positions; total extra writes across all boundaries are O(numRows)
// for the empty-row runs.
func rowPtrFromGrouped(keys []uint64, numRows int) []int64 {
	n := len(keys)
	rowPtr := make([]int64, numRows+1)
	if n == 0 {
		return rowPtr
	}
	if last := int(keys[n-1] >> 32); last >= numRows {
		panic("radix: group key row out of range")
	}
	par.For(n, 4096, func(i int) {
		r := int(keys[i] >> 32)
		prev := -1
		if i > 0 {
			prev = int(keys[i-1] >> 32)
		}
		for row := prev + 1; row <= r; row++ {
			rowPtr[row] = int64(i)
		}
	})
	for row := int(keys[n-1]>>32) + 1; row <= numRows; row++ {
		rowPtr[row] = int64(n)
	}
	return rowPtr
}

// Sort sorts a bare key slice ascending with the same parallel LSD passes
// as SortPairs, skipping every byte on which all keys agree: packed
// (u<<32|v) arcs over fewer than 2^16 vertices sort in four passes. Used by
// graph.FromEdges to build CSR adjacency.
func Sort(keys []uint64) {
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	if differ == 0 {
		return
	}
	n := len(keys)
	bounds := par.Blocks(n, passGrain)
	src, dst := keys, make([]uint64, n)
	for b := 0; b < 8; b++ {
		if differ>>(8*b)&0xff != 0 {
			countingPassKeys(src, dst, uint(8*b), bounds)
			src, dst = dst, src
		}
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// countingPassKeys is countingPass without a payload.
func countingPassKeys(src, dst []uint64, shift uint, bounds []int) {
	chunks := len(bounds) - 1
	counts := make([][256]int64, chunks)
	par.ForBlocks(bounds, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[c][(src[i]>>shift)&0xff]++
		}
	})
	offsets := passOffsets(counts)
	par.ForBlocks(bounds, func(c, lo, hi int) {
		var next [256]int64
		for d := 0; d < 256; d++ {
			next[d] = offsets[d*chunks+c]
		}
		for i := lo; i < hi; i++ {
			d := (src[i] >> shift) & 0xff
			dst[next[d]] = src[i]
			next[d]++
		}
	})
}

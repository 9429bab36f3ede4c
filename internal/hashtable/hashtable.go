// Package hashtable aggregates PathSampling results into the sparsifier.
//
// GroupCSR groups (packed key, fixed-point weight) pairs by source vertex
// into CSR arrays with a bucket sort: the pairs are scattered once into
// buckets of rows, each bucket sorts in cache, and equal keys merge as it is
// written out, their fixed-point weights summed. The fully sorted layout is
// unique, so the arrays are a pure function of the pair multiset, whatever
// the worker count. GroupUpperCSR groups one orientation of symmetric pairs
// so, into the upper triangle, and Mirror writes the other orientation by a
// transpose: the aggregation of every sampling pass, each of which holds its
// pairs (the incremental one across batches) until they are grouped, and
// the sparsifier build, which mirrors the trunc-logged upper triangle once.
// Given keys alone, GroupCSR is the module's one grouping sort: the graph
// builder turns packed arcs into adjacency through it.
//
// Table is the design the paper aggregates with instead (§4.2, "Sparse
// Parallel Hashing"): the folklore concurrent open-addressing table, whose
// inserts claim a slot with one compare-and-swap and accumulate with one
// atomic fetch-and-add — Go's atomic.AddUint64 compiles to the LOCK XADD
// instruction the paper singles out as decisively faster than a CAS loop
// under contention. No sampling pass builds one; it stays as the measured
// design point of E12 and the benchmark harness's table probe.
//
// Weights are stored in 44.20 fixed point (2^-20 resolution) so that
// accumulation is a single integer add rather than a CAS loop on float
// bits, and sums are exact whatever their order; exactness of *counts* is
// preserved (each sample adds the identical fixed-point increment),
// matching the paper's "exact count of each edge" guarantee.
package hashtable

import (
	"math"
	"math/bits"
	"sync/atomic"

	"lightne/internal/par"
)

const (
	// FixedPointShift is the number of fractional bits in stored weights.
	FixedPointShift = 20
	// fixedOne is 1.0 in fixed point.
	fixedOne = 1 << FixedPointShift
)

// Key packs a directed edge (u, v) into one key, source in the high word.
// The pair (0xffffffff, 0xffffffff) is reserved.
func Key(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

// UnpackKey splits a packed key back into (u, v).
func UnpackKey(k uint64) (u, v uint32) { return uint32(k >> 32), uint32(k) }

// MaxWeight is the largest single weight ToFixed can represent: the 44.20
// layout tops out just below 2^44. Larger weights saturate rather than wrap.
const MaxWeight = float64(math.MaxUint64) / fixedOne

// ToFixed converts a weight to fixed point, rounding to nearest. The valid
// domain is [0, MaxWeight]: negative weights and NaN clamp to 0, and weights
// at or above 2^44 saturate to the maximum representable value. Without the
// clamps the float→uint64 conversion of an out-of-range value is
// platform-dependent in Go (wrap on amd64, saturate-ish on arm64), which
// would silently corrupt aggregates.
//
// Note the clamp bounds a single conversion only; accumulation (the
// grouping's sums, the table's atomic adds) can still wrap if per-edge totals
// approach 2^44, which the sampler's O(max_degree/C) importance weights and
// realistic sample counts stay far below.
func ToFixed(w float64) uint64 {
	if !(w > 0) { // negative, zero, or NaN
		return 0
	}
	f := w*fixedOne + 0.5
	if f >= 1<<64 {
		return math.MaxUint64
	}
	return uint64(f)
}

// FromFixed converts a fixed-point weight back to float64.
func FromFixed(f uint64) float64 { return float64(f) / fixedOne }

// drainGrain is the slot or row chunk size of the parallel passes.
const drainGrain = 4096

const (
	bucketEntries = 2048 // mean bucket size: a bucket sorts in L2
	maxBucketBits = 8    // at most 256 buckets: few streams for the fill
	maxDigitBits  = 11   // in-bucket radix digit: its counts stay in L1
)

// GroupCSR groups a batch of (packed key, fixed-point weight) pairs by
// source vertex into CSR arrays: rowPtr has numRows+1 entries, and cols/ws
// hold each row's destination vertices (sorted ascending) and weights. The
// pairs of one key merge into one entry whose weight is their fixed-point
// sum. Every source vertex must be < numRows; GroupCSR panics otherwise, and
// if fixed is not nil and len(keys) != len(fixed). The arrays equal those of
// a table that took the same pairs, drained and sorted by key, bit for bit:
// the sums are exact and the layout fully sorted. keys and fixed are read,
// not modified.
//
// With fixed nil the keys carry no weight: equal keys still merge, ws is
// nil, and no weight is scattered, sorted or summed.
//
// The rows are cut into buckets of 2^shift rows. A pass over the pairs
// counts them per (block, bucket) and ORs their columns; a second writes
// each pair into its bucket's region, keyed row<<colBits | col (in 32 bits
// when that fits), with its fixed-point weight. The buckets are
// work-stolen, since power-law rows skew their sizes; each sorts in cache
// and counts its distinct keys, and once every count is known each writes
// its columns, weights and rows, equal keys merged.
func GroupCSR(keys, fixed []uint64, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	if fixed == nil {
		return groupSegments([][]uint64{keys}, nil, numRows)
	}
	return groupSegments([][]uint64{keys}, [][]uint64{fixed}, numRows)
}

// groupSegments is GroupCSR over pairs given as segments, keys[i] with
// fixed[i], each read where it lies; fixed nil groups the keys alone. It
// panics if a segment's weights do not pair up with its keys one to one.
func groupSegments(keys, fixed [][]uint64, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	total := 0
	for i, seg := range keys {
		if fixed != nil && len(fixed[i]) != len(seg) {
			panic("hashtable: keys and fixed must have equal length")
		}
		total += len(seg)
	}
	// Blocks of about a quarter of a worker's share, cut from each segment.
	grain := max(drainGrain, total/(4*par.Workers()))
	var kb, fb [][]uint64
	for i, seg := range keys {
		for lo := 0; lo < len(seg); lo += grain {
			hi := min(lo+grain, len(seg))
			kb = append(kb, seg[lo:hi])
			if fixed != nil {
				fb = append(fb, fixed[i][lo:hi])
			}
		}
	}
	bk := newBuckets(numRows, total, len(kb))
	colOr := make([]uint32, len(kb))
	par.For(len(kb), 1, func(i int) {
		colOr[i] = countPairs(kb[i], bk.row(i), bk.shift)
	})
	bk.scan(colOr, total)
	if bk.rowBits+bk.colBits <= 32 {
		return groupPairs[uint32](kb, fb, bk)
	}
	return groupPairs[uint64](kb, fb, bk)
}

// GroupScatterBytes bounds the bucket scatter GroupCSR allocates beside its
// output for pairs pairs over numRows rows: a fixed-point weight and a
// row<<colBits | col key per pair, the key in 4 bytes when two ids below
// numRows fit in 32 bits together, else in 8.
func GroupScatterBytes(pairs, numRows int) int64 {
	if 2*bits.Len(uint(max(numRows, 1)-1)) <= 32 {
		return 12 * int64(pairs)
	}
	return 16 * int64(pairs)
}

// buckets is the geometry of one bucketed grouping over numRows rows:
// bucket b holds rows [b<<shift, (b+1)<<shift), and every source block has
// one counter per bucket plus one for rows past the last bucket.
type buckets struct {
	numRows        int
	rowBits, shift uint
	colBits        uint  // bits of the widest column; set by scan
	cnt            []int // per block, len(start) counters; scan makes them write cursors
	start          []int // bucket b's entries are [start[b], start[b+1])
}

// newBuckets cuts numRows rows into buckets of about bucketEntries of total
// entries each, at most 2^maxBucketBits of them, with counters for blocks
// source blocks.
func newBuckets(numRows, total, blocks int) *buckets {
	rowBits := uint(bits.Len(uint(max(numRows, 1) - 1)))
	shift := rowBits - uint(min(bits.Len(uint(total/bucketEntries)), maxBucketBits, int(rowBits)))
	nb := (numRows + 1<<shift - 1) >> shift
	return &buckets{numRows: numRows, rowBits: rowBits, shift: shift,
		cnt: make([]int, blocks*(nb+1)), start: make([]int, nb+1)}
}

// row returns source block i's counters.
func (bk *buckets) row(i int) []int {
	stride := len(bk.start)
	return bk.cnt[i*stride : (i+1)*stride]
}

// scan turns the counts into write cursors, bucket-major and block-minor,
// fills start and sets colBits from the blocks' column ORs. It panics if
// the counted entries do not all lie in buckets, that is, if a row is past
// the last bucket.
func (bk *buckets) scan(colOr []uint32, total int) {
	nb, stride := len(bk.start)-1, len(bk.start)
	pos := 0
	for b := 0; b < nb; b++ {
		bk.start[b] = pos
		for c := b; c < len(bk.cnt); c += stride {
			bk.cnt[c], pos = pos, pos+bk.cnt[c]
		}
	}
	if bk.start[nb] = pos; pos != total {
		panic("hashtable: source row out of range")
	}
	var or uint32
	for _, o := range colOr {
		or |= o
	}
	bk.colBits = uint(bits.Len32(or))
}

// countPairs counts one block's pairs per bucket into cnt and returns the
// OR of their columns.
func countPairs(keys []uint64, cnt []int, shift uint) (or uint32) {
	last := uint64(len(cnt) - 1)
	for _, k := range keys {
		cnt[min(k>>32>>shift, last)]++
		or |= uint32(k)
	}
	return or
}

// groupPairs scatters blocks of pairs, which may repeat keys, into their
// buckets, keys in K, then sorts and writes out every bucket; with fixed nil
// it scatters the keys alone.
func groupPairs[K uint32 | uint64](src, fixed [][]uint64, bk *buckets) (rowPtr []int64, cols []uint32, ws []float64) {
	total := bk.start[len(bk.start)-1]
	keys, fix := make([]K, total), []uint64(nil)
	if fixed != nil {
		fix = make([]uint64, total)
	}
	par.For(len(src), 1, func(i int) {
		next, last, shift, colBits := bk.row(i), uint64(len(bk.start)-1), bk.shift, bk.colBits
		if fix == nil {
			for _, k := range src[i] {
				b := min(k>>32>>shift, last)
				keys[next[b]] = K(k>>32<<colBits | uint64(uint32(k)))
				next[b]++
			}
			return
		}
		fixed := fixed[i][:len(src[i])]
		for j, k := range src[i] {
			b := min(k>>32>>shift, last)
			keys[next[b]], fix[next[b]] = K(k>>32<<colBits|uint64(uint32(k))), fixed[j]
			next[b]++
		}
	})
	return sortBuckets(keys, fix, bk)
}

// sortBuckets sorts every bucket of a scatter in cache and writes the CSR
// arrays, each run of equal keys merged into one entry: the sorted buckets
// count their distinct keys, and they are written out, packed, once every
// count is known; with fix nil, without weights.
func sortBuckets[K uint32 | uint64](keys []K, fix []uint64, bk *buckets) (rowPtr []int64, cols []uint32, ws []float64) {
	start, nb := bk.start, len(bk.start)-1
	rowPtr = make([]int64, bk.numRows+1)
	scratch, biggest := make([]bucketScratch[K], par.Workers()), 0
	for b := 0; b < nb; b++ {
		biggest = max(biggest, start[b+1]-start[b])
	}
	keyBits := bk.shift + bk.colBits
	off := make([]int, nb+1)
	par.WorkerBlocks(start, func(w, b, lo, hi int) {
		var f []uint64
		if fix != nil {
			f = fix[lo:hi]
		}
		scratch[w].sort(keys[lo:hi], f, keyBits, biggest)
		off[b+1] = distinctKeys(keys[lo:hi])
	})
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	cols = make([]uint32, off[nb])
	if fix != nil {
		ws = make([]float64, off[nb])
	}
	var outOfRange atomic.Bool
	// Sorted bucket b is written to the output from off[b].
	par.ForBlocks(off, func(b, out, _ int) {
		lo, hi := start[b], start[b+1]
		rows, row0 := rowPtr[b<<bk.shift:min((b+1)<<bk.shift, bk.numRows)], K(b<<bk.shift)
		if hi > lo && uint64(keys[hi-1]>>(bk.colBits&63)-row0) >= uint64(len(rows)) {
			outOfRange.Store(true)
		} else if fix == nil {
			emitKeys(keys[lo:hi], rows, cols[out:], row0, bk.colBits, out)
		} else {
			emitRows(keys[lo:hi], fix[lo:hi], rows, cols[out:], ws[out:], row0, bk.colBits, out)
		}
	})
	if outOfRange.Load() {
		panic("hashtable: source row out of range")
	}
	rowPtr[bk.numRows] = int64(len(cols))
	return rowPtr, cols, ws
}

// distinctKeys counts the distinct keys of a sorted bucket.
func distinctKeys[K uint32 | uint64](keys []K) int {
	n := min(len(keys), 1)
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			n++
		}
	}
	return n
}

// emitRows writes one sorted bucket over the rows [row0, row0+len(rows)),
// each run of equal keys merged into one entry whose weight is the run's
// fixed-point sum: columns to cols, weights to ws, and each row's start,
// offset by base, to rows. No key's row may lie past rows.
func emitRows[K uint32 | uint64](keys []K, fix []uint64, rows []int64, cols []uint32, ws []float64, row0 K, colBits uint, base int) {
	mask := K(1)<<(colBits&63) - 1
	r, j := 0, 0
	for i := 0; i < len(keys); j++ {
		k, f := keys[i], fix[i]
		for i++; i < len(keys) && keys[i] == k; i++ {
			f += fix[i]
		}
		for row := int(k>>(colBits&63) - row0); r <= row; r++ {
			rows[r] = int64(base + j)
		}
		cols[j], ws[j] = uint32(k&mask), FromFixed(f)
	}
	for ; r < len(rows); r++ {
		rows[r] = int64(base + j)
	}
}

// emitKeys is emitRows without weights.
func emitKeys[K uint32 | uint64](keys []K, rows []int64, cols []uint32, row0 K, colBits uint, base int) {
	mask := K(1)<<(colBits&63) - 1
	r, j := 0, 0
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		for row := int(k>>(colBits&63) - row0); r <= row; r++ {
			rows[r] = int64(base + j)
		}
		cols[j] = uint32(k & mask)
		j++
	}
	for ; r < len(rows); r++ {
		rows[r] = int64(base + j)
	}
}

// bucketScratch is one worker's sort scratch, allocated as the passes
// first need it.
type bucketScratch[K uint32 | uint64] struct {
	keys [2][]K
	fix  [2][]uint64
	cnt  [1 << maxDigitBits]int32
}

// sort orders one bucket's entries by key, in place: LSD over the keyBits
// bits that can differ in the bucket, alternating between the scratch
// buffers, sized for buckets of up to biggest entries, and the last pass
// writing back into keys and fix. Stable, so equal keys keep their order.
// With fix nil the keys sort alone.
func (sc *bucketScratch[K]) sort(keys []K, fix []uint64, keyBits uint, biggest int) {
	// Two passes at least: the last one overwrites the bucket, so it must
	// not read it.
	passes := max(2, (keyBits+maxDigitBits-1)/maxDigitBits)
	width := (keyBits + passes - 1) / passes
	srcK, srcF := keys, fix
	for p := uint(0); p < passes; p++ {
		dstK, dstF := keys, fix
		if p+1 < passes {
			if sc.keys[p&1] == nil {
				sc.keys[p&1] = make([]K, biggest)
				if fix != nil {
					sc.fix[p&1] = make([]uint64, biggest)
				}
			}
			dstK = sc.keys[p&1][:len(keys)]
			if fix != nil {
				dstF = sc.fix[p&1][:len(keys)]
			}
		}
		radixPass(srcK, srcF, dstK, dstF, p*width, width, &sc.cnt)
		srcK, srcF = dstK, dstF
	}
}

// radixPass is one stable counting pass on the width-bit digit at shift,
// from (srcK, srcF) to (dstK, dstF); srcF nil moves the keys alone.
func radixPass[K uint32 | uint64](srcK []K, srcF []uint64, dstK []K, dstF []uint64, shift, width uint, cnt *[1 << maxDigitBits]int32) {
	mask := K(1)<<width - 1
	clear(cnt[:mask+1])
	for _, k := range srcK {
		cnt[k>>(shift&63)&mask&(1<<maxDigitBits-1)]++
	}
	var sum int32
	for d, c := range cnt[:mask+1] {
		cnt[d], sum = sum, sum+c
	}
	if srcF == nil {
		for _, k := range srcK {
			d := k >> (shift & 63) & mask & (1<<maxDigitBits - 1)
			dstK[cnt[d]] = k
			cnt[d]++
		}
		return
	}
	srcF = srcF[:len(srcK)]
	for i, k := range srcK {
		d := k >> (shift & 63) & mask & (1<<maxDigitBits - 1)
		dstK[cnt[d]], dstF[cnt[d]] = k, srcF[i]
		cnt[d]++
	}
}

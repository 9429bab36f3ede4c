// Package par provides lightweight data-parallel primitives used throughout
// the LightNE system: a grained parallel-for, parallel reductions, and
// prefix sums. It is the Go substitute for the bulk-parallel operations the
// paper obtains from GBBS/Ligra (fork-join with work stealing).
//
// All primitives degrade gracefully to sequential execution when
// GOMAXPROCS is 1 or the input is below the grain size, so small inputs pay
// no goroutine overhead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the minimum number of loop iterations a single worker
// processes per chunk. Chosen so that per-chunk scheduling overhead is well
// under 1% for trivial loop bodies.
const DefaultGrain = 2048

// Workers returns the degree of parallelism primitives in this package use.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs body(i) for every i in [0, n) in parallel, splitting the index
// space into contiguous chunks of at least grain iterations. If grain <= 0,
// DefaultGrain is used. body must be safe to call concurrently for distinct
// indices.
func For(n, grain int, body func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Blocks splits [0, n) into contiguous blocks and returns the boundary
// offsets: block b is [bounds[b], bounds[b+1]), bounds[0] == 0 and
// bounds[len(bounds)-1] == n. Every block except possibly the last holds at
// least grain iterations (DefaultGrain if grain <= 0), and the block count
// targets ~4 blocks per worker for load balance.
//
// Blocks is the single source of truth for this package's chunk geometry:
// two-pass algorithms (count / scan / fill, as in the hash-table drain) must
// compute bounds once and reuse them for both passes so per-block indices
// line up, rather than re-deriving the geometry.
func Blocks(n, grain int) []int {
	if n <= 0 {
		return []int{0}
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p := Workers()
	chunks := p * 4
	if maxChunks := (n + grain - 1) / grain; chunks > maxChunks {
		chunks = maxChunks
	}
	if p == 1 || chunks <= 1 {
		return []int{0, n}
	}
	size := (n + chunks - 1) / chunks
	nb := (n + size - 1) / size
	bounds := make([]int, nb+1)
	for b := 1; b < nb; b++ {
		bounds[b] = b * size
	}
	bounds[nb] = n
	return bounds
}

// PrefixBlocks is Blocks over [0, len(prefix)-1) with [lo, hi) weighing
// prefix[hi] - prefix[lo], so a CSR's row pointer cuts its rows into blocks
// of about equal entry counts, however skewed the rows: CutPrefix at a
// quarter of a worker's share of the weight, or at grain if that is more
// (DefaultGrain if grain <= 0), and one block on one worker.
func PrefixBlocks(prefix []int64, grain int64) []int {
	if grain <= 0 {
		grain = DefaultGrain
	}
	total := prefix[len(prefix)-1] - prefix[0]
	if Workers() == 1 {
		return CutPrefix(prefix, total)
	}
	return CutPrefix(prefix, max(grain, total/int64(4*Workers())))
}

// CutPrefix cuts [0, len(prefix)-1), weighed as in PrefixBlocks, greedily
// into blocks of at most maxWeight (a heavier index is a block of its own),
// any two adjacent ones weighing more, and returns bounds as Blocks does.
func CutPrefix(prefix []int64, maxWeight int64) []int {
	bounds := []int{0}
	for i := 1; i < len(prefix)-1; i++ {
		if prefix[i+1]-prefix[bounds[len(bounds)-1]] > maxWeight {
			bounds = append(bounds, i)
		}
	}
	if len(prefix) > 1 {
		bounds = append(bounds, len(prefix)-1)
	}
	return bounds
}

// ForBlocks runs body(b, lo, hi) in parallel for every block of a boundary
// slice produced by Blocks or PrefixBlocks. The dense block index b lets the
// body write into per-block scratch (counts, partial sums) without
// re-deriving the geometry.
func ForBlocks(bounds []int, body func(b, lo, hi int)) {
	WorkerBlocks(bounds, func(_, b, lo, hi int) { body(b, lo, hi) })
}

// WorkerBlocks is ForBlocks with a dense worker index in [0, Workers()), as
// in WorkerFor: blocks are taken one at a time, so skewed blocks balance,
// and two blocks never run concurrently under the same worker index.
func WorkerBlocks(bounds []int, body func(worker, b, lo, hi int)) {
	nb := len(bounds) - 1
	if nb <= 0 {
		return
	}
	p := Workers()
	if p == 1 || nb == 1 {
		for b := 0; b < nb; b++ {
			body(0, b, bounds[b], bounds[b+1])
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	workers := p
	if workers > nb {
		workers = nb
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= nb {
					return
				}
				body(worker, b, bounds[b], bounds[b+1])
			}
		}(w)
	}
	wg.Wait()
}

// ForRange runs body(lo, hi) over disjoint contiguous subranges covering
// [0, n). It is the chunked form of For: use it when the body can amortize
// per-chunk setup (e.g. a local RNG or buffer) across many iterations.
func ForRange(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Workers() == 1 || n <= grain {
		body(0, n)
		return
	}
	bounds := Blocks(n, grain)
	if len(bounds) == 2 {
		body(0, n)
		return
	}
	ForBlocks(bounds, func(_, lo, hi int) { body(lo, hi) })
}

// WorkerFor runs body(worker, lo, hi) like ForRange but additionally passes
// a dense worker index in [0, Workers()) so the body can use per-worker
// scratch state (RNGs, buffers) without allocation or contention. The chunks
// are the blocks of Blocks(n, grain), handed out by WorkerBlocks: multiple
// chunks may be processed by the same worker index, but two chunks never run
// concurrently under the same worker index.
func WorkerFor(n, grain int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if Workers() == 1 || n <= grain {
		body(0, 0, n)
		return
	}
	WorkerBlocks(Blocks(n, grain), func(worker, _, lo, hi int) { body(worker, lo, hi) })
}

// detBlocks is the fixed block count of the deterministic reduction. It is a
// constant — never derived from Workers() — so the block geometry, and with it
// every float rounding sequence, is a pure function of n.
const detBlocks = 64

// DetBounds returns the block boundaries of the deterministic reduction
// geometry for n items: at most detBlocks contiguous blocks of equal ceiling
// size. Unlike Blocks, the result depends only on n, never on GOMAXPROCS, so
// algorithms that accumulate floats per block and combine block partials in a
// fixed order produce bit-identical results for every worker count.
func DetBounds(n int) []int {
	if n <= 0 {
		return []int{0}
	}
	nb := detBlocks
	if nb > n {
		nb = n
	}
	size := (n + nb - 1) / nb
	nb = (n + size - 1) / size
	bounds := make([]int, nb+1)
	for b := 1; b < nb; b++ {
		bounds[b] = b * size
	}
	bounds[nb] = n
	return bounds
}

// ReduceFloat64Det computes the sum of f(i) for i in [0, n) with a result
// that is bit-identical for every GOMAXPROCS: blocks come from DetBounds
// (a pure function of n), each block sums sequentially, and the per-block
// partials combine in a fixed pairwise tree. Use it wherever a float total
// feeds a determinism contract — e.g. the weighted volume that scales the
// sparsifier.
func ReduceFloat64Det(n int, f func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	bounds := DetBounds(n)
	nb := len(bounds) - 1
	partial := make([]float64, nb)
	ForBlocks(bounds, func(b, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[b] = s
	})
	// Fixed pairwise tree: pairing depends only on nb (hence only on n).
	for stride := 1; stride < nb; stride *= 2 {
		for lo := 0; lo+stride < nb; lo += 2 * stride {
			partial[lo] += partial[lo+stride]
		}
	}
	return partial[0]
}

// MaxFloat64 computes the maximum of f(i) for i in [0, n) in parallel.
// It returns the provided identity when n <= 0. Max is order-independent,
// so the result is exact and schedule-independent (unlike float sums).
func MaxFloat64(n, grain int, identity float64, f func(i int) float64) float64 {
	if n <= 0 {
		return identity
	}
	var mu sync.Mutex
	best := identity
	ForRange(n, grain, func(lo, hi int) {
		local := identity
		for i := lo; i < hi; i++ {
			if v := f(i); v > local {
				local = v
			}
		}
		mu.Lock()
		if local > best {
			best = local
		}
		mu.Unlock()
	})
	return best
}

// scanGrain is the minimum per-block length for the parallel scan. Prefix
// sums are memory-bound, so blocks are kept larger than DefaultGrain to make
// the two passes worth their scheduling overhead.
const scanGrain = 4 * DefaultGrain

// ExclusiveScan replaces counts with its exclusive prefix sum and returns the
// total. counts[i] on return is the sum of the original counts[0:i].
//
// Large inputs scan in parallel with the standard two-pass scheme on the
// package's block geometry: per-block sums (ForBlocks), a sequential scan of
// the block sums, then per-block local scans seeded with the block offsets.
// Integer addition is associative, so the result is bit-identical to the
// sequential scan for every input, geometry and worker count — proven by the
// differential tests in par_test.go.
func ExclusiveScan(counts []int64) int64 {
	return exclusiveScan(counts, scanGrain)
}

// exclusiveScan is ExclusiveScan with an explicit grain, split out so tests
// can drive odd geometries (n < grain, n < workers, single block).
func exclusiveScan(counts []int64, grain int) int64 {
	n := len(counts)
	if grain <= 0 {
		grain = scanGrain
	}
	if Workers() == 1 || n <= grain {
		return exclusiveScanSeq(counts)
	}
	bounds := Blocks(n, grain)
	nb := len(bounds) - 1
	if nb <= 1 {
		return exclusiveScanSeq(counts)
	}
	sums := make([]int64, nb)
	ForBlocks(bounds, func(b, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[b] = s
	})
	total := exclusiveScanSeq(sums) // sums now holds per-block offsets
	ForBlocks(bounds, func(b, lo, hi int) {
		run := sums[b]
		for i := lo; i < hi; i++ {
			c := counts[i]
			counts[i] = run
			run += c
		}
	})
	return total
}

// exclusiveScanSeq is the sequential scan, used directly for small inputs and
// for the block-sum pass of the parallel scan.
func exclusiveScanSeq(counts []int64) int64 {
	var total int64
	for i, c := range counts {
		counts[i] = total
		total += c
	}
	return total
}

// Package hashtable implements the sparse parallel hash table LightNE uses
// to aggregate PathSampling results into the sparsifier (paper §4.2,
// "Sparse Parallel Hashing"). It is the folklore concurrent open-addressing
// table: linear probing, no deletions, lock-free inserts via compare-and-swap
// on the key slot, and weight accumulation via atomic fetch-and-add — Go's
// atomic.AddUint64 compiles to the LOCK XADD instruction the paper singles
// out as decisively faster than a CAS loop under contention.
//
// Weights are stored in 44.20 fixed point (2^-20 resolution) so that
// accumulation is a single integer xadd rather than a CAS loop on float
// bits; exactness of *counts* is preserved (each sample adds the identical
// fixed-point increment), matching the paper's "exact count of each edge"
// guarantee.
//
// Growth is handled with a readers-writer lock: inserts hold the read side
// (uncontended in steady state), and a full table triggers a single-writer
// rehash to double capacity. Callers that can estimate the number of
// distinct keys should presize via New's capacity hint to avoid growth
// entirely, as LightNE's sampler does.
package hashtable

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lightne/internal/par"
	"lightne/internal/radix"
)

const (
	emptyKey = ^uint64(0)
	// FixedPointShift is the number of fractional bits in stored weights.
	FixedPointShift = 20
	// fixedOne is 1.0 in fixed point.
	fixedOne = 1 << FixedPointShift
	// maxLoadNum/maxLoadDen is the load factor at which the table grows.
	maxLoadNum, maxLoadDen = 7, 8
)

// Key packs a directed edge (u, v) into the table's key space.
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
// Note the clamp bounds a single conversion only; the table's accumulation
// (atomic add of fixed-point increments) can still wrap if per-edge totals
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

// Table is a concurrent weighted-count hash table keyed by packed edges.
type Table struct {
	mu    sync.RWMutex
	keys  []uint64
	vals  []uint64
	mask  uint64
	count int64 // distinct keys, updated atomically
	peak  int64 // high-water mark of transient slot storage, updated atomically
}

// New returns a table presized to hold capacityHint distinct keys without
// growing. A hint <= 0 selects a small default.
func New(capacityHint int) *Table {
	t := &Table{}
	t.init(presize(capacityHint))
	t.notePeak(t.MemoryBytes())
	return t
}

// presize returns the smallest power-of-two capacity that admits
// capacityHint distinct keys under the load-factor check in tryAdd: the k-th
// insert requires (k-1)*maxLoadDen < cap*maxLoadNum. The earlier formula had
// two off-by-one flavors — bits.Len64 doubled exact powers of two, and the
// truncating *maxLoadDen/maxLoadNum division could undersize by one slot —
// either of which made a "presized" table grow once anyway.
func presize(capacityHint int) uint64 {
	if capacityHint < 1 {
		capacityHint = 1
	}
	need := uint64(capacityHint-1)*maxLoadDen/maxLoadNum + 1
	c := uint64(1) << bits.Len64(need-1)
	if c < 16 {
		c = 16
	}
	return c
}

func (t *Table) init(capacity uint64) {
	t.keys = make([]uint64, capacity)
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	t.vals = make([]uint64, capacity)
	t.mask = capacity - 1
}

// hash mixes a packed key (SplitMix64 finalizer).
func hash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// Add accumulates weight w onto key (u, v), inserting it if absent.
// Safe for concurrent use.
func (t *Table) Add(u, v uint32, w float64) {
	t.AddFixed(Key(u, v), ToFixed(w))
}

// AddFixed accumulates a fixed-point weight onto a packed key.
func (t *Table) AddFixed(key, fixed uint64) {
	for {
		t.mu.RLock()
		ok := t.tryAdd(key, fixed)
		t.mu.RUnlock()
		if ok {
			return
		}
		t.grow()
	}
}

// batchGrain is the per-chunk insert count for AddFixedBatch. Inserts are
// memory-bound random probes, so chunks stay small enough to keep all
// workers busy on modest batches.
const batchGrain = 2048

// AddFixedBatch accumulates every (key, fixed-point weight) pair,
// parallelizing the inserts over chunks of the batch. Equivalent to calling
// AddFixed for each pair — accumulation is commutative, so the result is
// independent of chunk geometry. Safe for concurrent use with AddFixed
// (inserts are lock-free; a grow triggered mid-batch stalls and retries
// exactly as single inserts do). len(keys) must equal len(fixed).
func (t *Table) AddFixedBatch(keys, fixed []uint64) {
	if len(keys) != len(fixed) {
		panic("hashtable: keys and fixed must have equal length")
	}
	par.ForRange(len(keys), batchGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.AddFixed(keys[i], fixed[i])
		}
	})
}

// tryAdd attempts a lock-free insert-or-accumulate. It reports false if the
// table is at its load limit (the caller must grow and retry).
func (t *Table) tryAdd(key, fixed uint64) bool {
	i := hash(key) & t.mask
	for {
		k := atomic.LoadUint64(&t.keys[i])
		if k == key {
			atomic.AddUint64(&t.vals[i], fixed)
			return true
		}
		if k == emptyKey {
			// Respect the load factor before claiming a new slot.
			if atomic.LoadInt64(&t.count)*maxLoadDen >= int64(t.mask+1)*maxLoadNum {
				return false
			}
			if atomic.CompareAndSwapUint64(&t.keys[i], emptyKey, key) {
				atomic.AddInt64(&t.count, 1)
				atomic.AddUint64(&t.vals[i], fixed)
				return true
			}
			// Lost the race; reinspect this slot (it may now hold our key).
			continue
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles capacity. Only one writer rehashes; concurrent Adds wait.
func (t *Table) grow() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if atomic.LoadInt64(&t.count)*maxLoadDen < int64(t.mask+1)*maxLoadNum {
		return // another goroutine already grew
	}
	oldKeys, oldVals := t.keys, t.vals
	t.init((t.mask + 1) * 2)
	// While rehashing, old and new slot arrays coexist: the true peak is
	// their sum (1.5x the post-grow footprint), which MemoryBytes alone
	// never shows — exactly the transient a capacity planner must budget.
	t.notePeak(int64(len(oldKeys))*16 + t.MemoryBytes())
	for i, k := range oldKeys {
		if k == emptyKey {
			continue
		}
		j := hash(k) & t.mask
		for t.keys[j] != emptyKey {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
}

// Len returns the number of distinct keys.
func (t *Table) Len() int { return int(atomic.LoadInt64(&t.count)) }

// Capacity returns the current slot count.
func (t *Table) Capacity() int { return len(t.keys) }

// MemoryBytes returns the table's slot storage footprint.
func (t *Table) MemoryBytes() int64 { return int64(len(t.keys)) * 16 }

// PeakMemoryBytes returns the high-water mark of slot storage over the
// table's lifetime, including the grow transient where the old and new
// slot arrays coexist. Equals MemoryBytes for a table that never grew.
func (t *Table) PeakMemoryBytes() int64 { return atomic.LoadInt64(&t.peak) }

// notePeak raises the recorded high-water mark to bytes if it is larger.
func (t *Table) notePeak(bytes int64) {
	for {
		cur := atomic.LoadInt64(&t.peak)
		if bytes <= cur || atomic.CompareAndSwapInt64(&t.peak, cur, bytes) {
			return
		}
	}
}

// Get returns the accumulated weight for (u, v) and whether it is present.
// Safe for concurrent use with Add.
func (t *Table) Get(u, v uint32) (float64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	key := Key(u, v)
	i := hash(key) & t.mask
	for {
		k := atomic.LoadUint64(&t.keys[i])
		if k == key {
			return FromFixed(atomic.LoadUint64(&t.vals[i])), true
		}
		if k == emptyKey {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// ForEach calls fn for every (key, weight) pair, in parallel over slots.
// Must not run concurrently with Add.
func (t *Table) ForEach(fn func(u, v uint32, w float64)) {
	par.For(len(t.keys), 4096, func(i int) {
		k := t.keys[i]
		if k == emptyKey {
			return
		}
		u, v := UnpackKey(k)
		fn(u, v, FromFixed(t.vals[i]))
	})
}

// drainGrain is the slot-array chunk size for the parallel drain passes.
const drainGrain = 4096

// occupancy counts occupied slots per block of the slot array and returns
// the block boundaries plus per-block counts: the first pass of the
// two-pass (count, scan, fill) drain. The same bounds must be reused for
// the fill pass so block indices line up.
func (t *Table) occupancy() (bounds []int, counts []int64) {
	bounds = par.Blocks(len(t.keys), drainGrain)
	counts = make([]int64, len(bounds)-1)
	if len(bounds) == 2 {
		// Single block: the maintained key count already is the occupancy,
		// so skip the counting pass entirely.
		counts[0] = int64(t.Len())
		return bounds, counts
	}
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if t.keys[i] != emptyKey {
				c++
			}
		}
		counts[b] = c
	})
	return bounds, counts
}

// Drain returns all entries as parallel slices (unordered by key, stable in
// slot order) and keeps the table intact. Must not run concurrently with
// Add. The drain is fully parallel: a per-block occupancy count, an
// exclusive scan over block counts, and a parallel fill into exactly-sized
// output slices — no append, no lock (paper §4.2: the sparsifier hand-off
// is part of the parallel pipeline, not a sequential epilogue).
func (t *Table) Drain() (us, vs []uint32, ws []float64) {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	us = make([]uint32, total)
	vs = make([]uint32, total)
	ws = make([]float64, total)
	t.fill(bounds, counts, us, vs, ws)
	return us, vs, ws
}

// DrainInto writes every entry into the given slices starting at index 0
// and returns the number written (== Len()). The slices must have length at
// least Len(). It is the allocation-free form of Drain, used by sharded
// aggregators to drain shards in parallel into disjoint regions of one
// output. Must not run concurrently with Add.
func (t *Table) DrainInto(us, vs []uint32, ws []float64) int {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	t.fill(bounds, counts, us[:total], vs[:total], ws[:total])
	return int(total)
}

// fill is the second drain pass: counts must hold the exclusive scan of the
// per-block occupancy for the same bounds.
func (t *Table) fill(bounds []int, counts []int64, us, vs []uint32, ws []float64) {
	keys, vals := t.keys, t.vals
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := int(counts[b])
		for i := lo; i < hi; i++ {
			k := keys[i]
			if k == emptyKey {
				continue
			}
			us[w], vs[w] = UnpackKey(k)
			ws[w] = FromFixed(vals[i])
			w++
		}
	})
}

// DrainKeys returns all entries as (packed key, weight) pairs in slot order,
// keeping the table intact — the raw form of Drain used by the CSR builders
// and by sharded aggregators that group across shards. Must not run
// concurrently with Add.
func (t *Table) DrainKeys() (keys []uint64, ws []float64) {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	keys = make([]uint64, total)
	ws = make([]float64, total)
	t.fillKeys(bounds, counts, keys, ws)
	return keys, ws
}

// DrainKeysInto writes every entry as (packed key, weight) into the given
// slices starting at index 0 and returns the number written (== Len()). The
// slices must have length at least Len(). It is the allocation-free form of
// DrainKeys, used to drain shards in parallel into disjoint regions of one
// output. Must not run concurrently with Add.
func (t *Table) DrainKeysInto(keys []uint64, ws []float64) int {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	t.fillKeys(bounds, counts, keys[:total], ws[:total])
	return int(total)
}

// fillKeys is the packed-key fill pass: counts must hold the exclusive scan
// of the per-block occupancy for the same bounds.
func (t *Table) fillKeys(bounds []int, counts []int64, keys []uint64, ws []float64) {
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			k := t.keys[i]
			if k == emptyKey {
				continue
			}
			keys[w] = k
			ws[w] = FromFixed(t.vals[i])
			w++
		}
	})
}

// DrainCSR returns the table's entries grouped by source vertex as CSR
// arrays: rowPtr has numRows+1 entries, and cols/ws hold each row's
// destination vertices (sorted ascending) and weights. Keys in the table
// already being distinct, no merge is needed — the result plugs directly
// into sparse.FromCSRParts, skipping the COO scatter + per-row comparison
// sort entirely. The full-key sort makes the layout a pure function of the
// stored entries, independent of slot order, so repeated runs with the same
// samples produce bit-identical CSR arrays. Every source vertex stored in
// the table must be < numRows. The table is left intact. Must not run
// concurrently with Add.
func (t *Table) DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	keys, ws := t.DrainKeys()
	return GroupKeysCSR(keys, ws, numRows)
}

// GroupKeysCSR turns drained (packed key, weight) pairs into CSR arrays with
// the fully-sorted radix grouping. The key slice is consumed (sorted in
// place and reused for the column extraction).
func GroupKeysCSR(keys []uint64, ws []float64, numRows int) (rowPtr []int64, cols []uint32, outWs []float64) {
	rowPtr = radix.GroupCSR(keys, ws, numRows)
	return rowPtr, colsFromKeys(keys), ws
}

// colsFromKeys extracts the low 32 bits (destination vertex) of each key.
func colsFromKeys(keys []uint64) []uint32 {
	cols := make([]uint32, len(keys))
	par.For(len(keys), drainGrain, func(i int) {
		cols[i] = uint32(keys[i])
	})
	return cols
}

// ShardOf routes a packed key to one of 1<<bits shards using the high bits
// of the table hash, so shard routing and in-shard probing (which uses the
// low bits via the capacity mask) draw on disjoint parts of the same mix.
// bits == 0 maps every key to shard 0.
func ShardOf(key uint64, bits uint) int {
	return int(hash(key) >> (64 - bits))
}

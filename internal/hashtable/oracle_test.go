package hashtable

import (
	"sync"
	"sync/atomic"
	"testing"

	"lightne/internal/par"
	"lightne/internal/radix"
)

// perKeyTable is the insert kernel this package used before batch-first
// inserts, kept as BenchmarkInsert's baseline: keys and weights in separate
// arrays (two cache lines per hit), an explicit empty marker written over the
// whole key array at allocation, and every insert taking the growth lock's
// read side and publishing each new key with its own atomic add on the
// shared count.
type perKeyTable struct {
	mu    sync.RWMutex
	keys  []uint64
	vals  []uint64
	mask  uint64
	count int64
}

const perKeyEmpty = ^uint64(0)

func newPerKeyTable(capacityHint int) *perKeyTable {
	t := &perKeyTable{}
	t.init(presize(capacityHint))
	return t
}

func (t *perKeyTable) init(capacity uint64) {
	t.keys = make([]uint64, capacity)
	for i := range t.keys {
		t.keys[i] = perKeyEmpty
	}
	t.vals = make([]uint64, capacity)
	t.mask = capacity - 1
}

func (t *perKeyTable) AddFixed(key, fixed uint64) {
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

func (t *perKeyTable) AddFixedBatch(keys, fixed []uint64) {
	par.ForRange(len(keys), BatchGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.AddFixed(keys[i], fixed[i])
		}
	})
}

func (t *perKeyTable) tryAdd(key, fixed uint64) bool {
	i := hash(key) & t.mask
	for {
		k := atomic.LoadUint64(&t.keys[i])
		if k == key {
			atomic.AddUint64(&t.vals[i], fixed)
			return true
		}
		if k == perKeyEmpty {
			if atomic.LoadInt64(&t.count)*maxLoadDen >= int64(t.mask+1)*maxLoadNum {
				return false
			}
			if atomic.CompareAndSwapUint64(&t.keys[i], perKeyEmpty, key) {
				atomic.AddInt64(&t.count, 1)
				atomic.AddUint64(&t.vals[i], fixed)
				return true
			}
			continue
		}
		i = (i + 1) & t.mask
	}
}

func (t *perKeyTable) grow() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if atomic.LoadInt64(&t.count)*maxLoadDen < int64(t.mask+1)*maxLoadNum {
		return
	}
	oldKeys, oldVals := t.keys, t.vals
	t.init((t.mask + 1) * 2)
	for i, k := range oldKeys {
		if k == perKeyEmpty {
			continue
		}
		j := hash(k) & t.mask
		for t.keys[j] != perKeyEmpty {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
	}
}

// TestKernelsBitIdenticalToPerKeyOracle: the batch kernel holds exactly the
// aggregate the replaced per-key kernel builds from the same pairs. See
// DESIGN.md "Numerics".
func TestKernelsBitIdenticalToPerKeyOracle(t *testing.T) {
	keys, fixed := insertWorkload(60_000, 40_000)
	for i := range fixed {
		fixed[i] += uint64(i % 5)
	}
	oracle := newPerKeyTable(0)
	oracle.AddFixedBatch(keys, fixed)
	tab := New(0, 1)
	tab.AddFixedBatch(keys, fixed)
	if tab.Len() != int(oracle.count) {
		t.Fatalf("Len=%d, oracle %d", tab.Len(), oracle.count)
	}
	for i, k := range oracle.keys {
		if k == perKeyEmpty {
			continue
		}
		if got, ok := tab.shards[0].lookup(k); !ok || got != oracle.vals[i] {
			t.Fatalf("key %x: %d,%v, oracle %d", k, got, ok, oracle.vals[i])
		}
	}
}

// The grouped drain this package used before the bucketed one, kept as the
// oracle of TestDrainCSRBitIdenticalToRadixOracle and the baseline of
// BenchmarkDrainCSR: drain every table's (packed key, weight) pairs into one
// pair of arrays in slot order, then sort them with radix.GroupCSR's four
// out-of-cache passes over 16-byte pairs and extract the columns.

// drainShardsKeys merges every shard's (packed key, weight) pairs into one
// pair of exactly-sized arrays: per-shard lengths, an exclusive scan for shard
// offsets, then all shards drain in parallel into disjoint regions.
func drainShardsKeys(t *Table) (keys []uint64, ws []float64) {
	shards := t.shards
	if len(shards) == 1 {
		return shards[0].drainKeys()
	}
	offsets := make([]int64, len(shards))
	for i := range shards {
		offsets[i] = shards[i].count.Load()
	}
	total := par.ExclusiveScan(offsets)
	keys = make([]uint64, total)
	ws = make([]float64, total)
	par.For(len(shards), 1, func(i int) {
		lo := offsets[i]
		shards[i].drainKeysInto(keys[lo:], ws[lo:])
	})
	return keys, ws
}

// occupancy counts occupied slots per block of the slot array and returns
// the block boundaries plus per-block counts: the first pass of the
// two-pass (count, scan, fill) drain. The same bounds must be reused for
// the fill pass so block indices line up.
func (t *shard) occupancy() (bounds []int, counts []int64) {
	bounds = par.Blocks(len(t.slots), drainGrain)
	counts = make([]int64, len(bounds)-1)
	if len(bounds) == 2 {
		// Single block: the maintained key count already is the occupancy,
		// so skip the counting pass entirely.
		counts[0] = t.count.Load()
		return bounds, counts
	}
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if t.slots[i].key != 0 {
				c++
			}
		}
		counts[b] = c
	})
	return bounds, counts
}

// drainKeys returns all entries as (packed key, weight) pairs in slot order,
// keeping the table intact.
func (t *shard) drainKeys() (keys []uint64, ws []float64) {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	keys = make([]uint64, total)
	ws = make([]float64, total)
	t.fillKeys(bounds, counts, keys, ws)
	return keys, ws
}

// drainKeysInto writes every entry as (packed key, weight) into the given
// slices starting at index 0 and returns the number written (== Len()).
func (t *shard) drainKeysInto(keys []uint64, ws []float64) int {
	bounds, counts := t.occupancy()
	total := par.ExclusiveScan(counts)
	t.fillKeys(bounds, counts, keys[:total], ws[:total])
	return int(total)
}

// fillKeys is the packed-key fill pass: counts must hold the exclusive scan
// of the per-block occupancy for the same bounds.
func (t *shard) fillKeys(bounds []int, counts []int64, keys []uint64, ws []float64) {
	slots := t.slots
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			s := slots[i]
			if s.key == 0 {
				continue
			}
			keys[w] = ^s.key
			ws[w] = FromFixed(s.val)
			w++
		}
	})
}

// groupKeysCSR turns drained (packed key, weight) pairs into CSR arrays with
// the fully-sorted radix grouping. The key slice is consumed (sorted in
// place and reused for the column extraction).
func groupKeysCSR(keys []uint64, ws []float64, numRows int) (rowPtr []int64, cols []uint32, outWs []float64) {
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

// drainCSROracle is the replaced DrainCSR.
func drainCSROracle(t *Table, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	keys, ws := drainShardsKeys(t)
	return groupKeysCSR(keys, ws, numRows)
}

package hashtable

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lightne/internal/par"
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

// drainCSROracle is the grouped drain DrainCSR replaced, kept as the oracle
// of TestDrainCSRBitIdenticalToRadixOracle and the baseline of
// BenchmarkDrainCSR: drain every shard to (packed key, weight) pairs, sort
// them by key with the standard library, and count the rows.
func drainCSROracle(t *Table, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	type pair struct {
		key uint64
		w   float64
	}
	us, vs, drained := t.Drain()
	pairs := make([]pair, len(us))
	for i := range pairs {
		pairs[i] = pair{Key(us[i], vs[i]), drained[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	rowPtr = make([]int64, numRows+1)
	cols, ws = make([]uint32, len(pairs)), make([]float64, len(pairs))
	for i, p := range pairs {
		rowPtr[p.key>>32+1]++
		cols[i], ws[i] = uint32(p.key), p.w
	}
	for r := 0; r < numRows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return rowPtr, cols, ws
}

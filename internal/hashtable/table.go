package hashtable

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"lightne/internal/par"
)

// maxLoadNum/maxLoadDen is the load factor New presizes for.
const maxLoadNum, maxLoadDen = 7, 8

// batchGrain is the smallest run of pairs AddFixedBatch hands one worker.
const batchGrain = 2048

// Table is the paper's sparse parallel hash table (§4.2): one
// open-addressing region presized by New, probed linearly, with no
// deletions and no growth. An insert claims an empty slot with one
// compare-and-swap and accumulates with one atomic fetch-and-add (LOCK
// XADD), so concurrent inserts need no lock. No sampling pass builds one;
// it is the measured design point of E12 and of the benchmark harness's
// table probe.
//
// A slot holds the complemented key and its fixed-point weight in 16
// bytes, so a hit touches one cache line, and the all-zero slot of a fresh
// allocation is the empty marker: the complement of the reserved pair
// (0xffffffff, 0xffffffff).
type Table struct {
	slots []slot
	mask  uint64
	shift uint // a key's home slot is hash(key) >> shift
}

// slot is one table entry: key holds the complemented packed key, so 0
// marks an empty slot; val is the accumulated fixed-point weight. Inserts
// use sync/atomic's functions on the fields; they are plain words because
// Drain, which must not run concurrently with inserts, reads them by value
// (an atomic.Uint64 pair made the drain ~10 % slower).
type slot struct {
	key, val uint64
}

// New returns a table presized to hold capacity distinct keys under the 7/8
// load factor. It never grows: an insert that finds every slot taken by
// other keys panics.
func New(capacity int) *Table {
	c := presize(capacity)
	return &Table{slots: make([]slot, c), mask: c - 1, shift: uint(64 - bits.TrailingZeros64(c))}
}

// presize returns the smallest power-of-two slot count, at least 16, that
// admits capacity distinct keys: capacity <= slots·7/8.
func presize(capacity int) uint64 {
	need := uint64(max(capacity, 1)-1)*maxLoadDen/maxLoadNum + 1
	return max(16, uint64(1)<<bits.Len64(need-1))
}

// hash mixes a packed key (SplitMix64 finalizer).
func hash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// Add accumulates weight w onto key (u, v), inserting it if absent. Safe
// for concurrent use.
func (t *Table) Add(u, v uint32, w float64) {
	k, f := [1]uint64{Key(u, v)}, [1]uint64{ToFixed(w)}
	t.insert(k[:], f[:])
}

// AddFixedBatch accumulates every (packed key, fixed-point weight) pair,
// the pairs split over the workers. Equivalent to one Add per pair
// (accumulation is commutative), and safe for concurrent use with every
// other insert. len(keys) must equal len(fixed).
func (t *Table) AddFixedBatch(keys, fixed []uint64) {
	if len(keys) != len(fixed) {
		panic("hashtable: keys and fixed must have equal length")
	}
	par.ForRange(len(keys), batchGrain, func(lo, hi int) { t.insert(keys[lo:hi], fixed[lo:hi]) })
}

// insert is the per-key loop: probe from the key's home slot, claim the
// first empty slot with a CAS, or find the key, and xadd the weight. A
// probe visits each slot at most once and panics if none is free.
func (t *Table) insert(keys, fixed []uint64) {
	slots, mask, shift := t.slots, t.mask, t.shift&63
	fixed = fixed[:len(keys)]
	for i, key := range keys {
		want := ^key
		j := hash(key) >> shift
		for probes := 0; ; probes++ {
			if probes == len(slots) {
				panic(fmt.Sprintf("hashtable: table full: all %d slots taken, presized for at most %d distinct keys",
					len(slots), len(slots)/maxLoadDen*maxLoadNum))
			}
			sl := &slots[j]
			k := atomic.LoadUint64(&sl.key)
			if k == 0 {
				if atomic.CompareAndSwapUint64(&sl.key, 0, want) {
					atomic.AddUint64(&sl.val, fixed[i])
					break
				}
				k = atomic.LoadUint64(&sl.key) // lost the race: the winner may hold our key
			}
			if k == want {
				atomic.AddUint64(&sl.val, fixed[i])
				break
			}
			j = (j + 1) & mask
		}
	}
}

// MemoryBytes returns the table's slot storage footprint.
func (t *Table) MemoryBytes() int64 { return int64(len(t.slots)) * 16 }

// Drain returns the table's entries as parallel slices, in slot order,
// keeping the table intact: a count per slot block, a scan and a parallel
// fill (paper §4.2: the hand-off is part of the parallel pipeline). Must
// not run concurrently with inserts.
func (t *Table) Drain() (us, vs []uint32, ws []float64) {
	bounds := par.Blocks(len(t.slots), drainGrain)
	off := make([]int64, len(bounds)-1)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var n int64
		for _, s := range t.slots[lo:hi] {
			if s.key != 0 {
				n++
			}
		}
		off[b] = n
	})
	total := par.ExclusiveScan(off)
	us, vs, ws = make([]uint32, total), make([]uint32, total), make([]float64, total)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := off[b]
		for _, s := range t.slots[lo:hi] {
			if s.key != 0 {
				us[w], vs[w] = UnpackKey(^s.key)
				ws[w] = FromFixed(s.val)
				w++
			}
		}
	})
	return us, vs, ws
}

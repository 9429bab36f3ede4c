// Package hashtable implements the sparse parallel hash table LightNE uses
// to aggregate PathSampling results into the sparsifier (paper §4.2,
// "Sparse Parallel Hashing"). It is the folklore concurrent open-addressing
// table: linear probing, no deletions, inserts that claim a slot with one
// compare-and-swap and accumulate with one atomic fetch-and-add — Go's
// atomic.AddUint64 compiles to the LOCK XADD instruction the paper singles
// out as decisively faster than a CAS loop under contention.
//
// Weights are stored in 44.20 fixed point (2^-20 resolution) so that
// accumulation is a single integer xadd rather than a CAS loop on float
// bits; exactness of *counts* is preserved (each sample adds the identical
// fixed-point increment), matching the paper's "exact count of each edge"
// guarantee.
//
// Slot layout: one 16-byte slot holds the key and its weight, so a hit
// touches one cache line. Keys are stored complemented (^key), which makes
// the all-zero slot the empty marker: a freshly allocated slot array is an
// empty table, with no fill pass. The complement of the reserved pair
// (0xffffffff, 0xffffffff) is that marker.
//
// A Table is split into a power of two of shards (New's shards argument,
// one for a plain table), each an open-addressing table with its own
// growth lock, routed by the high bits of the key's hash. A key's home slot
// in its shard is the next log2(capacity) hash bits, the ones just below the
// shard bits, so the top bits of a hash name a shard and a window of
// adjacent slots in it. Sharding changes no bit of the aggregate; it
// confines a grow to the keys of one shard, and it lets a long batch be
// partitioned so that one goroutine owns each shard's run.
//
// Inserts are batch-first. The shared kernel (shard.addShared) takes a
// shard's growth lock's read side once per chunk of up to BatchGrain pairs
// and runs a per-key loop of probes, CASes and xadds with no lock and no
// counter update. The chunk's first new key reserves headroom for every
// remaining key with one compare-and-swap on the key count, so hits never
// touch the count, and unused headroom is returned when the chunk ends. A
// full shard makes the chunk release the lock, double the shard under the
// write lock, and carry on, so a presized table never grows and the 7/8
// load factor is never exceeded. The owned kernel (shard.addOwned) runs a
// sharded table's partitioned batch: it holds the shard's write lock for
// the run and inserts with plain loads and stores, a local count and an
// inline grow. The partition groups the batch by shard and, within a shard,
// by window of about 256 KiB of home slots (the windows are cut from the
// presized shard capacity), so an owned run sweeps its shard window by
// window, probing in cache instead of across the whole shard. AddFixed and
// Add are one-pair calls into the shared kernel.
//
// The sparsifier hand-off, DrainCSR, groups every shard's entries by source
// vertex: each entry is scattered once, into a bucket of rows that sorts in
// cache. The keys being distinct, the fully sorted layout is unique,
// whatever the shard count, slot order or worker count.
package hashtable

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"lightne/internal/par"
)

const (
	// FixedPointShift is the number of fractional bits in stored weights.
	FixedPointShift = 20
	// fixedOne is 1.0 in fixed point.
	fixedOne = 1 << FixedPointShift
	// maxLoadNum/maxLoadDen is the load factor at which a shard grows.
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

// slot is one table entry. key holds the complemented packed key, so 0 marks
// an empty slot; val is the accumulated fixed-point weight. The fields are
// plain words because the owned kernel accesses them without atomics; the
// shared kernel and Get use sync/atomic's functions on them.
type slot struct {
	key, val uint64
}

// MaxShards is the most shards New accepts. A caller that takes a shard
// count from outside input checks it against this bound first
// (sampler.Config.Check): past it a shard holds too few keys to matter, and
// every small batch into a sharded table clears one cursor per shard.
const MaxShards = 1024

// shardBits returns log2 of the shard count New makes for shards: shards
// rounded up to a power of two, at least 1. It panics above MaxShards.
func shardBits(shards int) uint {
	if shards > MaxShards {
		panic("hashtable: shard count exceeds MaxShards")
	}
	return uint(bits.Len(uint(max(shards, 1) - 1)))
}

// Table is a concurrent weighted-count hash table keyed by packed edges,
// split into 1<<shardBits shards routed by shardOf.
type Table struct {
	shards    []shard
	shardBits uint
	partBits  uint      // top hash bits a long batch is partitioned by: shard, then window
	small     sync.Pool // *smallBatch scratch of a sharded AddFixedBatch
}

// shard is one open-addressing table of a Table.
type shard struct {
	mu    sync.RWMutex
	slots []slot
	mask  uint64
	home  homeBits
	// count is the number of distinct keys plus the headroom in-flight
	// shared chunks have reserved but not yet used.
	count atomic.Int64
	peak  atomic.Int64 // high-water mark of transient slot storage
}

// New returns a table of shards shards (rounded up to a power of two, at
// least 1), each presized for its share of capacityHint distinct keys, so
// that the table holds capacityHint keys without growing. A hint <= 0
// selects a small default. shards must not exceed MaxShards.
func New(capacityHint, shards int) *Table {
	b := shardBits(shards)
	n := 1 << b
	c := presize((capacityHint + n - 1) / n)
	windows := uint(max(0, bits.TrailingZeros64(c)-windowSlotBits))
	t := &Table{shards: make([]shard, n), shardBits: b, partBits: max(b, min(b+windows, maxPartBits))}
	for i := range t.shards {
		t.shards[i].home.skip = b
		t.shards[i].setSlots(c)
		t.shards[i].peak.Store(int64(c) * 16)
	}
	if n > 1 {
		t.small.New = func() any {
			return &smallBatch{make([]uint64, BatchGrain), make([]uint64, BatchGrain), make([]int, n)}
		}
	}
	return t
}

// presize returns the smallest power-of-two capacity whose maxKeys admits
// capacityHint distinct keys: hint <= capacity·7/8.
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

// SlotBytes is the slot footprint of New(capacityHint, shards). shards must
// not exceed MaxShards.
func SlotBytes(capacityHint, shards int) int64 {
	n := 1 << shardBits(shards)
	return int64(n) * int64(presize((capacityHint+n-1)/n)) * 16
}

func (s *shard) setSlots(capacity uint64) {
	s.slots = make([]slot, capacity)
	s.mask = capacity - 1
	s.home.shift = uint(64 - bits.TrailingZeros64(capacity))
}

// homeBits picks a key's home slot out of its hash: the log2(capacity) bits
// just below the table's shard bits. The kernels copy it out of the shard
// before their loops, off the cache line that count shares.
type homeBits struct{ skip, shift uint }

// of returns the home slot of a key with hash h.
func (b homeBits) of(h uint64) uint64 { return h << (b.skip & 63) >> (b.shift & 63) }

// maxKeys is the most distinct keys the shard's capacity holds under the
// 7/8 load factor (capacities are powers of two >= 16, so this is exact).
func (s *shard) maxKeys() int64 {
	return int64(len(s.slots)) / maxLoadDen * maxLoadNum
}

// hash mixes a packed key (SplitMix64 finalizer).
func hash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// shardOf routes a packed key to one of 1<<bits shards using the high bits
// of the hash; the home slot takes the bits below them, so routing and
// in-shard probing draw on disjoint parts of the same mix. With bits =
// partBits it names the key's partition group instead: its shard, then its
// window. bits == 0 maps every key to shard 0.
func shardOf(key uint64, bits uint) int {
	return int(hash(key) >> (64 - bits))
}

// shardFor returns key's shard.
func (t *Table) shardFor(key uint64) *shard {
	return &t.shards[shardOf(key, t.shardBits)]
}

// Add accumulates weight w onto key (u, v), inserting it if absent.
// Safe for concurrent use.
func (t *Table) Add(u, v uint32, w float64) {
	t.AddFixed(Key(u, v), ToFixed(w))
}

// AddFixed accumulates a fixed-point weight onto a packed key: a one-pair
// call into the shared batch kernel of its shard. Safe for concurrent use.
func (t *Table) AddFixed(key, fixed uint64) {
	k, f := [1]uint64{key}, [1]uint64{fixed}
	t.shardFor(key).addShared(k[:], f[:])
}

// BatchGrain is the chunk length of AddFixedBatch: a batch of at most
// BatchGrain pairs is inserted inline on the calling goroutine, and longer
// batches split into chunks or shard runs that run in parallel. Inserts are
// memory-bound random probes, so chunks stay small enough to keep all
// workers busy on modest batches.
const BatchGrain = 2048

// shardPartGrain is the per-chunk length of the shard-partition counting and
// scatter passes in AddFixedBatch.
const shardPartGrain = 4096

const (
	windowSlotBits = 14 // a partition window: 2^14 home slots, 256 KiB
	maxPartBits    = 8  // at most 256 groups unless there are more shards: few scatter streams
)

// AddFixedBatch accumulates every (key, fixed-point weight) pair. On one
// shard, a batch of at most BatchGrain pairs runs through the shared kernel
// inline under one read-lock acquisition, and a longer one in parallel
// chunks of about BatchGrain pairs. On several shards, a batch of at most
// BatchGrain pairs — one flush of a per-arc sampler's worker, arriving while
// every other worker flushes too — is grouped by shard on the calling
// goroutine into pooled scratch, and each shard's run goes through the
// shared kernel. A longer batch is partitioned in parallel by shard and
// home-slot window (per-chunk group counts, a scan for stable offsets, a
// scatter into group-contiguous scratch), and each shard's run goes to one
// worker, which inserts it window by window with the owned kernel: no
// atomic operation per key. Equivalent to calling
// AddFixed per pair (accumulation is commutative), and safe for concurrent
// use with every other insert. len(keys) must equal len(fixed).
func (t *Table) AddFixedBatch(keys, fixed []uint64) {
	if len(keys) != len(fixed) {
		panic("hashtable: keys and fixed must have equal length")
	}
	switch {
	case len(t.shards) == 1 && len(keys) <= BatchGrain:
		t.shards[0].addShared(keys, fixed)
	case len(t.shards) == 1:
		par.ForRange(len(keys), BatchGrain, func(lo, hi int) {
			t.shards[0].addShared(keys[lo:hi], fixed[lo:hi])
		})
	case len(keys) <= BatchGrain:
		t.addSmall(keys, fixed)
	default:
		kbuf, fbuf, starts := t.partition(keys, fixed)
		par.For(len(t.shards), 1, func(sh int) {
			lo, hi := starts[sh], starts[sh+1]
			t.shards[sh].addOwned(kbuf[lo:hi], fbuf[lo:hi])
		})
	}
}

// smallBatch is the grouping scratch of one small batch: room for
// BatchGrain pairs and one cursor per shard.
type smallBatch struct {
	keys, fixed []uint64
	next        []int
}

// addSmall groups a batch of at most BatchGrain pairs by shard into scratch
// from the table's pool — a counting pass, a scan, a stable scatter — and
// inserts each shard's run inline through the shared kernel.
func (t *Table) addSmall(keys, fixed []uint64) {
	b := t.small.Get().(*smallBatch)
	next := b.next
	clear(next)
	for _, k := range keys {
		next[shardOf(k, t.shardBits)]++
	}
	start := 0
	for sh, c := range next {
		next[sh] = start
		start += c
	}
	for i, k := range keys {
		sh := shardOf(k, t.shardBits)
		b.keys[next[sh]], b.fixed[next[sh]] = k, fixed[i]
		next[sh]++
	}
	// next[sh] is now the end of shard sh's run.
	lo := 0
	for sh, hi := range next {
		if hi > lo {
			t.shards[sh].addShared(b.keys[lo:hi], b.fixed[lo:hi])
		}
		lo = hi
	}
	t.small.Put(b)
}

// partition scatters a batch into scratch grouped by the top partBits of
// the hash — by shard, and within a shard by window of home slots —
// preserving input order within each group: shard sh's pairs are
// kbuf[starts[sh]:starts[sh+1]], in window order.
func (t *Table) partition(keys, fixed []uint64) (kbuf, fbuf []uint64, starts []int64) {
	n, pb := len(keys), t.partBits
	groups := 1 << pb
	bounds := par.Blocks(n, shardPartGrain)
	nb := len(bounds) - 1
	// counts[b*groups+g]: pairs of chunk b in group g; then chunk b's write
	// cursor for group g.
	counts := make([]int64, nb*groups)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row := counts[b*groups : (b+1)*groups]
		for _, k := range keys[lo:hi] {
			row[shardOf(k, pb)]++
		}
	})
	// Stable offsets, group-major: each group's region is contiguous, chunk
	// order is preserved within it, and a shard's groups are adjacent.
	per := groups / len(t.shards)
	starts = make([]int64, len(t.shards)+1)
	var total int64
	for g := 0; g < groups; g++ {
		if g%per == 0 {
			starts[g/per] = total
		}
		for b := 0; b < nb; b++ {
			c := &counts[b*groups+g]
			*c, total = total, total+*c
		}
	}
	starts[len(t.shards)] = total
	kbuf = make([]uint64, n)
	fbuf = make([]uint64, n)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		next := counts[b*groups : (b+1)*groups]
		for i := lo; i < hi; i++ {
			g := shardOf(keys[i], pb)
			p := next[g]
			next[g]++
			kbuf[p] = keys[i]
			fbuf[p] = fixed[i]
		}
	})
	return kbuf, fbuf, starts
}

// addShared inserts one chunk concurrently with other shared inserts. Each
// round holds the read lock, runs the per-key loop and returns the headroom
// it reserved but did not use. A round that stops short met a new key with
// no headroom left, so grow makes room for that key.
func (s *shard) addShared(keys, fixed []uint64) {
	for len(keys) > 0 {
		s.mu.RLock()
		done, unused := s.insertShared(keys, fixed)
		if unused > 0 {
			s.count.Add(-unused)
		}
		s.mu.RUnlock()
		keys, fixed = keys[done:], fixed[done:]
		if len(keys) > 0 {
			s.grow(keys[0])
		}
	}
}

// reserve claims up to want of the headroom left under the load factor by
// adding it to count. The caller holds the read lock.
func (s *shard) reserve(want int64) int64 {
	limit := s.maxKeys()
	for {
		c := s.count.Load()
		n := limit - c
		if n <= 0 {
			return 0
		}
		if n > want {
			n = want
		}
		if s.count.CompareAndSwap(c, c+n) {
			return n
		}
	}
}

// insertShared is the shared kernel's per-key loop: a probe and one xadd per
// hit, plus one CAS per new key paid from credits. Credits are reserved
// lazily, for every remaining key, when a new key finds none left, so a run
// of hits never touches count. The loop stops at a new key for which nothing
// could be reserved and reports how many pairs it inserted and how many
// reserved credits it left unspent. The caller holds the read lock.
func (s *shard) insertShared(keys, fixed []uint64) (done int, unused int64) {
	slots, mask, home := s.slots, s.mask, s.home
	var credits int64
	for i, key := range keys {
		want := ^key
		for j := home.of(hash(key)); ; j = (j + 1) & mask {
			sl := &slots[j]
			k := atomic.LoadUint64(&sl.key)
			if k == 0 {
				if credits == 0 {
					if credits = s.reserve(int64(len(keys) - i)); credits == 0 {
						return i, 0
					}
				}
				if atomic.CompareAndSwapUint64(&sl.key, 0, want) {
					credits--
					atomic.AddUint64(&sl.val, fixed[i])
					break
				}
				k = atomic.LoadUint64(&sl.key) // lost the race: the winner may hold our key
			}
			if k == want {
				atomic.AddUint64(&sl.val, fixed[i])
				break
			}
		}
	}
	return len(keys), credits
}

// addOwned accumulates every pair with the shard held exclusively: one
// write-lock acquisition for the run, then plain loads and stores, a local
// key count and an inline grow — no atomic operation per key. Concurrent
// inserts into the same shard wait for the run rather than race it.
func (s *shard) addOwned(keys, fixed []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count, limit := s.count.Load(), s.maxKeys()
	slots, mask, home := s.slots, s.mask, s.home
	for i, key := range keys {
		want := ^key
		for j := home.of(hash(key)); ; j = (j + 1) & mask {
			k := slots[j].key
			if k == want {
				slots[j].val += fixed[i]
				break
			}
			if k != 0 {
				continue
			}
			if count == limit {
				s.rehash()
				slots, mask, home, limit = s.slots, s.mask, s.home, s.maxKeys()
				j = (home.of(hash(key)) - 1) & mask // the loop step lands on the home slot
				continue
			}
			slots[j] = slot{want, fixed[i]}
			count++
			break
		}
	}
	s.count.Store(count)
}

// grow doubles capacity so that key fits, unless the write lock shows it
// already does. By then every read-lock holder has returned its reserved
// headroom, so count is the true key count; and the caller's probe may have
// seen key's slot empty just before another chunk claimed it. Checking both
// keeps a shard with room, or a shard that already holds key, from doubling.
func (s *shard) grow(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lookup(key); ok || s.count.Load() < s.maxKeys() {
		return
	}
	s.rehash()
}

// rehash doubles capacity and reinserts every entry. The caller holds the
// write lock.
func (s *shard) rehash() {
	old := s.slots
	s.setSlots(2 * uint64(len(old)))
	// While rehashing, old and new slot arrays coexist: the true peak is
	// their sum (1.5x the post-grow footprint), which MemoryBytes alone
	// never shows — exactly the transient a capacity planner must budget.
	s.peak.Store(int64(len(old))*16 + int64(len(s.slots))*16)
	slots, mask := s.slots, s.mask
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		j := s.home.of(hash(^sl.key))
		for slots[j].key != 0 {
			j = (j + 1) & mask
		}
		slots[j] = sl
	}
}

// Shards returns the shard count: a power of two.
func (t *Table) Shards() int { return len(t.shards) }

// Len returns the number of distinct keys. It is exact whenever no insert
// is in flight; during shared inserts it may include reserved headroom.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		n += int(t.shards[i].count.Load())
	}
	return n
}

// Capacity returns the current slot count, over all shards.
func (t *Table) Capacity() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].slots)
	}
	return n
}

// MemoryBytes returns the table's slot storage footprint.
func (t *Table) MemoryBytes() int64 { return int64(t.Capacity()) * 16 }

// PeakMemoryBytes returns the high-water mark of slot storage over the
// table's lifetime, including the grow transient where a shard's old and new
// slot arrays coexist: the sum of every shard's own high-water mark. Shards
// grow independently, so the sum overstates the instantaneous peak unless
// every shard grew at once — the conservative direction for capacity
// planning. Equals MemoryBytes for a table that never grew.
func (t *Table) PeakMemoryBytes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].peak.Load()
	}
	return n
}

// Get returns the accumulated weight for (u, v) and whether it is present.
// Safe for concurrent use with inserts; a key whose insert is in flight may
// be seen before its first weight is added.
func (t *Table) Get(u, v uint32) (float64, bool) {
	key := Key(u, v)
	s := t.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.lookup(key)
	return FromFixed(f), ok
}

// lookup returns key's fixed-point weight and whether it is present. The
// caller holds either side of the lock.
func (s *shard) lookup(key uint64) (uint64, bool) {
	for i := s.home.of(hash(key)); ; i = (i + 1) & s.mask {
		switch atomic.LoadUint64(&s.slots[i].key) {
		case ^key:
			return atomic.LoadUint64(&s.slots[i].val), true
		case 0:
			return 0, false
		}
	}
}

// drainGrain is the slot-array chunk size for the parallel drain passes.
const drainGrain = 4096

// slotBlocks cuts every shard's slot array into par.Blocks blocks and
// returns them with the table's key count.
func (t *Table) slotBlocks() (blocks [][]slot, total int) {
	for i := range t.shards {
		slots := t.shards[i].slots
		bounds := par.Blocks(len(slots), drainGrain)
		for j := 0; j+1 < len(bounds); j++ {
			blocks = append(blocks, slots[bounds[j]:bounds[j+1]])
		}
	}
	return blocks, t.Len()
}

// Drain returns the entries of every shard as parallel slices, in slot
// order, keeping the table intact: a count per slot block, a scan and a
// parallel fill (paper §4.2: the hand-off is part of the parallel
// pipeline). Must not run concurrently with inserts.
func (t *Table) Drain() (us, vs []uint32, ws []float64) {
	blocks, total := t.slotBlocks()
	off := make([]int, len(blocks)+1) // block i starts at off[i]; the last needs no count
	par.For(len(blocks)-1, 1, func(i int) {
		n := 0
		for _, s := range blocks[i] {
			if s.key != 0 {
				n++
			}
		}
		off[i+1] = n
	})
	for i := 0; i+1 < len(blocks); i++ {
		off[i+1] += off[i]
	}
	us, vs, ws = make([]uint32, total), make([]uint32, total), make([]float64, total)
	par.For(len(blocks), 1, func(i int) {
		w := off[i]
		for _, s := range blocks[i] {
			if s.key != 0 {
				us[w], vs[w] = UnpackKey(^s.key)
				ws[w] = FromFixed(s.val)
				w++
			}
		}
	})
	return us, vs, ws
}

const (
	bucketEntries = 2048 // mean bucket size: a bucket sorts in L2
	maxBucketBits = 8    // at most 256 buckets: few streams for the fill
	maxDigitBits  = 11   // in-bucket radix digit: its counts stay in L1
)

// DrainCSR returns the entries of every shard grouped by source vertex as
// CSR arrays: rowPtr has numRows+1 entries, and cols/ws hold each row's
// destination vertices (sorted ascending) and weights. Every source vertex
// must be < numRows; DrainCSR panics otherwise. The table is left intact.
// Must not run concurrently with inserts.
//
// The rows are cut into buckets of 2^shift rows. A pass over the slots
// counts entries per (block, bucket) and ORs their columns; a second writes
// each entry into its bucket's region, keyed row<<colBits | col (in 32 bits
// when that fits). The buckets are work-stolen, since power-law rows skew
// their sizes; each sorts in cache and writes its columns, weights and rows.
func (t *Table) DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	blocks, total := t.slotBlocks()
	rowBits := bits.Len(uint(max(numRows, 1) - 1))
	shift := uint(rowBits - min(bits.Len(uint(total/bucketEntries)), maxBucketBits, rowBits))
	nb := (numRows + 1<<shift - 1) >> shift
	// Per-block counters; counter nb takes the rows past the last bucket.
	stride := nb + 1
	counts := make([]int, len(blocks)*stride)
	colOr := make([]uint32, len(blocks))
	par.For(len(blocks), 1, func(i int) {
		colOr[i] = countBuckets(blocks[i], counts[i*stride:(i+1)*stride], shift)
	})
	// Bucket-major offsets; each block's counters become its write cursors.
	start := make([]int, stride)
	pos, or := 0, uint32(0)
	for b := 0; b < nb; b++ {
		start[b] = pos
		for i := range blocks {
			c := &counts[i*stride+b]
			*c, pos = pos, pos+*c
		}
	}
	if start[nb] = pos; pos != total {
		panic("hashtable: DrainCSR row out of range")
	}
	for _, o := range colOr {
		or |= o
	}
	colBits := uint(bits.Len32(or))
	if uint(rowBits)+colBits <= 32 {
		return drainBuckets[uint32](blocks, counts, start, numRows, shift, colBits)
	}
	return drainBuckets[uint64](blocks, counts, start, numRows, shift, colBits)
}

// countBuckets counts one block's entries per bucket into cnt and returns
// the OR of their columns. (A branch-free count measured slower: its empty
// slots all increment one counter.)
func countBuckets(slots []slot, cnt []int, shift uint) (or uint32) {
	last := uint64(len(cnt) - 1)
	for _, s := range slots {
		if s.key != 0 {
			k := ^s.key
			cnt[min(k>>32>>shift, last)]++
			or |= uint32(k)
		}
	}
	return or
}

// drainBuckets scatters the entries into their buckets, keys in K, then
// sorts and writes out every bucket. next holds each block's cursors.
func drainBuckets[K uint32 | uint64](blocks [][]slot, next, start []int, numRows int, shift, colBits uint) (rowPtr []int64, cols []uint32, ws []float64) {
	stride, total := len(start), start[len(start)-1]
	keys := make([]K, total)
	ws = make([]float64, total)
	par.For(len(blocks), 1, func(i int) {
		scatterBuckets(blocks[i], next[i*stride:(i+1)*stride], keys, ws, shift, colBits)
	})
	rowPtr = make([]int64, numRows+1)
	cols = make([]uint32, total)
	rowPtr[numRows] = int64(total)
	scratch, biggest := make([]bucketScratch[K], par.Workers()), 0
	for b := 0; b+1 < stride; b++ {
		biggest = max(biggest, start[b+1]-start[b])
	}
	var outOfRange atomic.Bool
	par.WorkerBlocks(start, func(w, b, lo, hi int) {
		if scratch[w].keys[0] == nil {
			scratch[w] = bucketScratch[K]{keys: [2][]K{make([]K, biggest), make([]K, biggest)},
				ws: [2][]float64{make([]float64, biggest), make([]float64, biggest)}}
		}
		rows := rowPtr[b<<shift : min((b+1)<<shift, numRows)]
		if !scratch[w].sort(keys[lo:hi], ws[lo:hi], rows, cols[lo:hi], K(b<<shift), shift+colBits, colBits, lo) {
			outOfRange.Store(true)
		}
	})
	if outOfRange.Load() {
		panic("hashtable: DrainCSR row out of range")
	}
	return rowPtr, cols, ws
}

// scatterBuckets writes one block's entries at their buckets' cursors in
// next: the key row<<colBits | col to keys, the weight to ws.
func scatterBuckets[K uint32 | uint64](slots []slot, next []int, keys []K, ws []float64, shift, colBits uint) {
	last := uint64(len(next) - 1)
	for _, s := range slots {
		if s.key != 0 {
			k := ^s.key
			b := min(k>>32>>shift, last)
			keys[next[b]], ws[next[b]] = K(k>>32<<colBits|uint64(uint32(k))), FromFixed(s.val)
			next[b]++
		}
	}
}

// bucketScratch is one worker's sort scratch.
type bucketScratch[K uint32 | uint64] struct {
	keys [2][]K
	ws   [2][]float64
	cnt  [1 << maxDigitBits]int32
}

// sort orders one bucket's entries by key over the rows [row0,
// row0+len(rows)) and writes columns to cols, weights back to ws and each
// row's start, offset by base, to rows. It is LSD over the keyBits bits that
// can differ in the bucket; the last pass writes cols and ws. It returns
// false if a row lies past rows.
func (sc *bucketScratch[K]) sort(keys []K, ws []float64, rows []int64, cols []uint32, row0 K, keyBits, colBits uint, base int) bool {
	clear(rows)
	for _, k := range keys {
		r := uint64(k>>(colBits&63) - row0)
		if r >= uint64(len(rows)) {
			return false
		}
		rows[r]++
	}
	sum := int64(base)
	for r, c := range rows {
		rows[r], sum = sum, sum+c
	}
	// Two passes at least: the last one overwrites ws, so it must not read it.
	passes := max(2, (keyBits+maxDigitBits-1)/maxDigitBits)
	width := (keyBits + passes - 1) / passes
	srcK, srcW := keys, ws
	for p := uint(0); p+1 < passes; p++ {
		dstK, dstW := sc.keys[p&1][:len(keys)], sc.ws[p&1][:len(keys)]
		radixPass(srcK, srcW, dstK, dstW, p*width, width, ^K(0), &sc.cnt)
		srcK, srcW = dstK, dstW
	}
	radixPass(srcK, srcW, cols, ws, (passes-1)*width, width, K(1)<<colBits-1, &sc.cnt)
	return true
}

// radixPass is one stable counting pass on the width-bit digit at shift,
// from (srcK, srcW) to (dstK, dstW), each key masked by keep.
func radixPass[K, D uint32 | uint64](srcK []K, srcW []float64, dstK []D, dstW []float64, shift, width uint, keep K, cnt *[1 << maxDigitBits]int32) {
	mask := K(1)<<width - 1
	clear(cnt[:mask+1])
	for _, k := range srcK {
		cnt[k>>(shift&63)&mask&(1<<maxDigitBits-1)]++
	}
	var sum int32
	for d, c := range cnt[:mask+1] {
		cnt[d], sum = sum, sum+c
	}
	srcW = srcW[:len(srcK)]
	for i, k := range srcK {
		d := k >> (shift & 63) & mask & (1<<maxDigitBits - 1)
		dstK[cnt[d]], dstW[cnt[d]] = D(k&keep), srcW[i]
		cnt[d]++
	}
}

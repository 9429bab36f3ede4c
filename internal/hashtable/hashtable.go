// Package hashtable implements the sparse parallel hash table LightNE uses
// to aggregate PathSampling results into the sparsifier (paper §4.2,
// "Sparse Parallel Hashing"), and the grouping sorts that aggregate the
// same pairs without it. No sampling pass builds the table; it stays as the
// measured design point of E12 and the benchmark harness's table probe. It
// is the folklore concurrent open-addressing
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
// growth lock, routed by the high bits of the key's hash; a key's home slot
// in its shard is the next log2(capacity) hash bits, the ones just below the
// shard bits. Sharding changes no bit of the aggregate; it confines a grow
// to the keys of one shard.
//
// Inserts are batch-first, through one kernel (shard.addShared). It takes a
// shard's growth lock's read side once per chunk of up to BatchGrain pairs
// and runs a per-key loop of probes, CASes and xadds with no lock and no
// counter update. The chunk's first new key reserves headroom for every
// remaining key with one compare-and-swap on the key count, so hits never
// touch the count, and unused headroom is returned when the chunk ends. A
// full shard makes the chunk release the lock, double the shard under the
// write lock, and carry on, so a presized table never grows and the 7/8
// load factor is never exceeded. AddFixed and Add are one-pair calls into
// the same kernel.
//
// The sparsifier hand-off, DrainCSR, groups every shard's entries by source
// vertex: each entry is scattered once, into a bucket of rows that sorts in
// cache. The keys being distinct, the fully sorted layout is unique,
// whatever the shard count, slot order or worker count. GroupCSR runs the
// same bucket sort on a batch of pairs that has not been through a table
// and merges equal keys, summing their fixed-point weights, after each
// bucket sorts: the same CSR a table of those pairs drains to, without the
// table. GroupSymmetricCSR groups one orientation of symmetric pairs so and
// writes the other by a transpose: the aggregation of every sampling pass,
// each of which holds its pairs (the incremental one across batches) until
// they are grouped. Given keys alone, GroupCSR is the module's one
// grouping sort: the graph builder turns packed arcs into adjacency
// through it.
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
// plain words because a grow and the drains, which hold the table
// exclusively, read them without atomics; the insert kernel and Get use
// sync/atomic's functions on them.
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
}

// New returns a table of shards shards (rounded up to a power of two, at
// least 1), each presized for its share of capacityHint distinct keys, so
// that the table holds capacityHint keys without growing. A hint <= 0
// selects a small default. shards must not exceed MaxShards.
func New(capacityHint, shards int) *Table {
	b := shardBits(shards)
	n := 1 << b
	c := presize((capacityHint + n - 1) / n)
	t := &Table{shards: make([]shard, n), shardBits: b}
	for i := range t.shards {
		t.shards[i].home.skip = b
		t.shards[i].setSlots(c)
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
// in-shard probing draw on disjoint parts of the same mix. bits == 0 maps
// every key to shard 0.
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
// batches split into chunks that run in parallel. Inserts are memory-bound
// random probes, so chunks stay small enough to keep all workers busy on
// modest batches.
const BatchGrain = 2048

// AddFixedBatch accumulates every (key, fixed-point weight) pair. A batch of
// at most BatchGrain pairs runs inline on the calling goroutine, and a
// longer one in parallel, in chunks of at most BatchGrain pairs. On one
// shard a chunk goes through the shared kernel under one read-lock
// acquisition. On several, a chunk — one flush of a per-arc sampler's
// worker, arriving while every other worker flushes too — is grouped by
// shard into pooled scratch, and each shard's run goes through the shared
// kernel. Equivalent to calling AddFixed per pair (accumulation is
// commutative), and safe for concurrent use with every other insert.
// len(keys) must equal len(fixed).
func (t *Table) AddFixedBatch(keys, fixed []uint64) {
	if len(keys) != len(fixed) {
		panic("hashtable: keys and fixed must have equal length")
	}
	if len(keys) <= BatchGrain {
		t.addChunk(keys, fixed)
		return
	}
	par.ForRange(len(keys), BatchGrain, func(lo, hi int) {
		for ; lo < hi; lo += BatchGrain {
			end := min(lo+BatchGrain, hi)
			t.addChunk(keys[lo:end], fixed[lo:end])
		}
	})
}

// smallBatch is the grouping scratch of one chunk: room for BatchGrain
// pairs and one cursor per shard.
type smallBatch struct {
	keys, fixed []uint64
	next        []int
}

// addChunk inserts a chunk of at most BatchGrain pairs inline through the
// shared kernel. On several shards it first groups the chunk by shard into
// scratch from the table's pool — a counting pass, a scan, a stable
// scatter — and inserts each shard's run.
func (t *Table) addChunk(keys, fixed []uint64) {
	if len(t.shards) == 1 {
		t.shards[0].addShared(keys, fixed)
		return
	}
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
// when that fits), with its fixed-point weight. The buckets are
// work-stolen, since power-law rows skew their sizes; each sorts in cache
// and counts its keys, and once every count is known each writes its
// columns, weights and rows.
func (t *Table) DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	blocks, total := t.slotBlocks()
	bk := newBuckets(numRows, total, len(blocks))
	colOr := make([]uint32, len(blocks))
	par.For(len(blocks), 1, func(i int) {
		colOr[i] = countSlots(blocks[i], bk.row(i), bk.shift)
	})
	bk.scan(colOr, total)
	if bk.rowBits+bk.colBits <= 32 {
		return drainSlots[uint32](blocks, bk)
	}
	return drainSlots[uint64](blocks, bk)
}

// GroupCSR groups a batch of (packed key, fixed-point weight) pairs by
// source vertex into CSR arrays, as DrainCSR groups a table's entries: the
// pairs of one key merge into one entry whose weight is their fixed-point
// sum. Every source vertex must be < numRows; GroupCSR panics otherwise, and
// if fixed is not nil and len(keys) != len(fixed). The arrays equal those of
// DrainCSR on a table that took the same pairs, bit for bit: the sums are
// exact and the layout fully sorted. keys and fixed are read, not modified.
//
// With fixed nil the keys carry no weight: equal keys still merge, ws is
// nil, and no weight is scattered, sorted or summed.
//
// It is DrainCSR's bucket sort with the pairs as the source; after a bucket
// sorts, its equal keys are adjacent and merge as it is written out.
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

// countSlots counts one block's entries per bucket into cnt and returns
// the OR of their columns. (A branch-free count measured slower: its empty
// slots all increment one counter.)
func countSlots(slots []slot, cnt []int, shift uint) (or uint32) {
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

// countPairs is countSlots over a block of packed keys.
func countPairs(keys []uint64, cnt []int, shift uint) (or uint32) {
	last := uint64(len(cnt) - 1)
	for _, k := range keys {
		cnt[min(k>>32>>shift, last)]++
		or |= uint32(k)
	}
	return or
}

// drainSlots scatters the table's entries into their buckets, keys in K,
// then sorts and writes out every bucket.
func drainSlots[K uint32 | uint64](blocks [][]slot, bk *buckets) (rowPtr []int64, cols []uint32, ws []float64) {
	total := bk.start[len(bk.start)-1]
	keys, fix := make([]K, total), make([]uint64, total)
	par.For(len(blocks), 1, func(i int) {
		next, last, shift, colBits := bk.row(i), uint64(len(bk.start)-1), bk.shift, bk.colBits
		for _, s := range blocks[i] {
			if s.key != 0 {
				k := ^s.key
				b := min(k>>32>>shift, last)
				keys[next[b]], fix[next[b]] = K(k>>32<<colBits|uint64(uint32(k))), s.val
				next[b]++
			}
		}
	})
	return sortBuckets(keys, fix, bk)
}

// groupPairs is drainSlots over blocks of pairs, which may repeat keys;
// with fixed nil it scatters the keys alone.
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

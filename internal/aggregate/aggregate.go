// Package aggregate implements the sample-aggregation strategies LightNE
// *considered* for building the sparsifier (paper §4.2, "We considered
// several different techniques for this aggregation problem in the
// shared-memory setting"):
//
//  1. per-worker edge lists merged with a sort-based sparse histogram
//     (the GBBS histogram approach) — ListHistogram;
//  2. per-worker hash tables merged at the end — PerWorkerTables;
//  3. a single shared hash table with atomic xadd — SharedTable,
//     a thin adapter over internal/hashtable, the design the paper (and
//     this repository) ultimately selected; optionally sharded across a
//     power of two of sub-tables routed by high hash bits
//     (NewShardedTable), which confines grow-lock stalls to one shard when
//     the capacity hint is wrong.
//
// All three implement Aggregator and produce identical aggregates; the
// benchmarks in bench_test.go reproduce the paper's conclusion that the
// shared table is the fastest and most memory-efficient under realistic
// sample streams.
package aggregate

import (
	"sync"

	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/radix"
)

// Aggregator accumulates weighted directed-edge samples from concurrent
// workers and drains the per-edge totals.
type Aggregator interface {
	// Add accumulates weight w onto (u, v) on behalf of the given worker
	// (dense id in [0, workers)). Implementations differ in whether worker
	// state is shared or private.
	Add(worker int, u, v uint32, w float64)
	// Drain returns the aggregated entries (unordered). Must not be called
	// concurrently with Add.
	Drain() (us, vs []uint32, ws []float64)
	// MemoryBytes estimates the aggregation state's peak footprint.
	MemoryBytes() int64
}

// record is one buffered sample in the list-based strategy.
type record struct {
	key uint64
	w   float64
}

// ListHistogram buffers every sample in per-worker lists and aggregates at
// drain time by sorting and run-length summing (the sparse-histogram
// approach). Memory grows with the number of samples, not distinct edges —
// the property that limited NetSMF's affordable sample count (§5.2.4).
type ListHistogram struct {
	lists [][]record
}

// NewListHistogram returns a list-based aggregator for the given worker
// count.
func NewListHistogram(workers int) *ListHistogram {
	return &ListHistogram{lists: make([][]record, workers)}
}

// Add appends to the worker's private list: no synchronization at all.
func (l *ListHistogram) Add(worker int, u, v uint32, w float64) {
	l.lists[worker] = append(l.lists[worker], record{hashtable.Key(u, v), w})
}

// Drain concatenates all lists and aggregates with the parallel radix
// group-sum (the semisort/partial-radix-sort step the paper cites, §4.2).
func (l *ListHistogram) Drain() (us, vs []uint32, ws []float64) {
	var total int
	for _, lst := range l.lists {
		total += len(lst)
	}
	keys := make([]uint64, 0, total)
	vals := make([]float64, 0, total)
	for _, lst := range l.lists {
		for _, r := range lst {
			keys = append(keys, r.key)
			vals = append(vals, r.w)
		}
	}
	n := radix.GroupSum(keys, vals)
	us = make([]uint32, n)
	vs = make([]uint32, n)
	ws = make([]float64, n)
	for i := 0; i < n; i++ {
		us[i], vs[i] = hashtable.UnpackKey(keys[i])
		ws[i] = vals[i]
	}
	return us, vs, ws
}

// MemoryBytes counts the buffered records (16 bytes each).
func (l *ListHistogram) MemoryBytes() int64 {
	var n int64
	for _, lst := range l.lists {
		n += int64(cap(lst)) * 16
	}
	return n
}

// PerWorkerTables keeps one private map per worker and merges at drain
// time — NetSMF's strategy ("maintains a thread-local sparsifier in each
// thread and merges them at the end", §5.2.4). Distinct edges sampled by
// k workers are stored k times, the duplication the shared table avoids.
type PerWorkerTables struct {
	tables []map[uint64]float64
}

// NewPerWorkerTables returns a per-worker-map aggregator.
func NewPerWorkerTables(workers int) *PerWorkerTables {
	t := &PerWorkerTables{tables: make([]map[uint64]float64, workers)}
	for i := range t.tables {
		t.tables[i] = make(map[uint64]float64)
	}
	return t
}

// Add updates the worker's private map: no synchronization.
func (t *PerWorkerTables) Add(worker int, u, v uint32, w float64) {
	t.tables[worker][hashtable.Key(u, v)] += w
}

// Drain merges all maps.
func (t *PerWorkerTables) Drain() (us, vs []uint32, ws []float64) {
	merged := make(map[uint64]float64)
	for _, m := range t.tables {
		for k, w := range m {
			merged[k] += w
		}
	}
	for k, w := range merged {
		u, v := hashtable.UnpackKey(k)
		us = append(us, u)
		vs = append(vs, v)
		ws = append(ws, w)
	}
	return us, vs, ws
}

// MemoryBytes estimates map storage: ~48 bytes per entry per worker copy
// (Go map overhead on a 16-byte payload).
func (t *PerWorkerTables) MemoryBytes() int64 {
	var n int64
	for _, m := range t.tables {
		n += int64(len(m)) * 48
	}
	return n
}

// SharedTable adapts internal/hashtable.Table to the Aggregator interface:
// the design the paper selected. It optionally splits the key space across
// a power-of-two number of shards routed by the high bits of the table hash
// (NewShardedTable). Sharding changes nothing semantically — fixed-point
// accumulation is exact and commutative, so a sharded and an unsharded
// aggregator produce bit-identical aggregates — but when the caller's
// capacity hint is wrong, a grow stalls only the 1/shards fraction of
// inserts routed to the full shard instead of every worker in the system.
type SharedTable struct {
	shards    []*hashtable.Table
	shardBits uint
	small     sync.Pool // *smallBatch scratch for AddFixedBatch
}

// NewSharedTable returns a shared-table aggregator presized for
// capacityHint distinct edges.
func NewSharedTable(capacityHint int) *SharedTable {
	return NewShardedTable(capacityHint, 1)
}

// NewShardedTable returns a shared-table aggregator split into shards
// (rounded up to a power of two, minimum 1), each presized for its share of
// capacityHint distinct edges.
func NewShardedTable(capacityHint, shards int) *SharedTable {
	if shards < 1 {
		shards = 1
	}
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	n := 1 << bits
	s := &SharedTable{shards: make([]*hashtable.Table, n), shardBits: bits}
	perShard := (capacityHint + n - 1) / n
	for i := range s.shards {
		s.shards[i] = hashtable.New(perShard)
	}
	s.small.New = func() any {
		const g = hashtable.BatchGrain
		return &smallBatch{make([]uint64, g), make([]uint64, g), make([]int, n)}
	}
	return s
}

// Add accumulates through the shared kernel (CAS + xadd); the worker id is
// unused.
func (s *SharedTable) Add(_ int, u, v uint32, w float64) {
	s.AddFixed(hashtable.Key(u, v), hashtable.ToFixed(w))
}

// AddFixed accumulates a fixed-point weight onto a packed key, routing it to
// its shard: a one-pair insert, for Add and tests. Samplers insert through
// AddFixedBatch.
func (s *SharedTable) AddFixed(key, fixed uint64) {
	s.shards[hashtable.ShardOf(key, s.shardBits)].AddFixed(key, fixed)
}

// shardPartGrain is the per-chunk length of the shard-partition counting and
// scatter passes in AddFixedBatch.
const shardPartGrain = 4096

// AddFixedBatch accumulates every (key, fixed-point weight) pair, grouped by
// hashtable.ShardOf first. A batch of at most hashtable.BatchGrain pairs —
// one flush of a per-arc sampler's worker, arriving while every other worker
// flushes too — is grouped on the calling goroutine into pooled scratch, and
// each shard's run goes through the shared batch kernel. A longer batch is
// partitioned in parallel (per-chunk shard counts, a scan for stable offsets,
// a scatter into shard-contiguous scratch), and each shard's run goes to one
// worker, which inserts it under that shard's write lock with plain loads
// and stores (hashtable.Table.AddFixedBatchOwned): no atomic operation per
// key. Equivalent to calling AddFixed per pair (accumulation is
// commutative), and safe for concurrent use with every other insert.
// len(keys) must equal len(fixed).
func (s *SharedTable) AddFixedBatch(keys, fixed []uint64) {
	if len(keys) != len(fixed) {
		panic("aggregate: keys and fixed must have equal length")
	}
	switch {
	case len(s.shards) == 1:
		s.shards[0].AddFixedBatch(keys, fixed)
	case len(keys) <= hashtable.BatchGrain:
		s.addSmall(keys, fixed)
	default:
		kbuf, fbuf, starts := s.partition(keys, fixed)
		par.For(len(s.shards), 1, func(sh int) {
			lo, hi := starts[sh], starts[sh+1]
			s.shards[sh].AddFixedBatchOwned(kbuf[lo:hi], fbuf[lo:hi])
		})
	}
}

// smallBatch is the grouping scratch of one small batch: room for
// hashtable.BatchGrain pairs and one cursor per shard.
type smallBatch struct {
	keys, fixed []uint64
	next        []int
}

// addSmall groups a batch of at most hashtable.BatchGrain pairs by shard
// into scratch from the table's pool — a counting pass, a scan, a stable
// scatter — and inserts each shard's run inline through the shared kernel.
func (s *SharedTable) addSmall(keys, fixed []uint64) {
	b := s.small.Get().(*smallBatch)
	next := b.next
	clear(next)
	for _, k := range keys {
		next[hashtable.ShardOf(k, s.shardBits)]++
	}
	start := 0
	for sh, c := range next {
		next[sh] = start
		start += c
	}
	for i, k := range keys {
		sh := hashtable.ShardOf(k, s.shardBits)
		b.keys[next[sh]], b.fixed[next[sh]] = k, fixed[i]
		next[sh]++
	}
	// next[sh] is now the end of shard sh's run.
	lo := 0
	for sh, hi := range next {
		if hi > lo {
			s.shards[sh].AddFixedBatch(b.keys[lo:hi], b.fixed[lo:hi])
		}
		lo = hi
	}
	s.small.Put(b)
}

// partition scatters a batch into shard-contiguous scratch, preserving input
// order within each shard: shard sh's pairs are kbuf[starts[sh]:starts[sh+1]].
func (s *SharedTable) partition(keys, fixed []uint64) (kbuf, fbuf []uint64, starts []int64) {
	n, nShards := len(keys), len(s.shards)
	bounds := par.Blocks(n, shardPartGrain)
	nb := len(bounds) - 1
	// counts[b*nShards+sh]: pairs in chunk b routed to shard sh.
	counts := make([]int64, nb*nShards)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row := counts[b*nShards : (b+1)*nShards]
		for i := lo; i < hi; i++ {
			row[hashtable.ShardOf(keys[i], s.shardBits)]++
		}
	})
	// Stable offsets, shard-major: shard sh's region is contiguous and chunk
	// order is preserved within it.
	offs := make([]int64, nShards*nb)
	starts = make([]int64, nShards+1)
	var total int64
	for sh := 0; sh < nShards; sh++ {
		starts[sh] = total
		for b := 0; b < nb; b++ {
			offs[sh*nb+b] = total
			total += counts[b*nShards+sh]
		}
	}
	starts[nShards] = total
	kbuf = make([]uint64, n)
	fbuf = make([]uint64, n)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		next := make([]int64, nShards)
		for sh := 0; sh < nShards; sh++ {
			next[sh] = offs[sh*nb+b]
		}
		for i := lo; i < hi; i++ {
			sh := hashtable.ShardOf(keys[i], s.shardBits)
			p := next[sh]
			next[sh]++
			kbuf[p] = keys[i]
			fbuf[p] = fixed[i]
		}
	})
	return kbuf, fbuf, starts
}

// Get returns the accumulated weight for (u, v) and whether it is present.
// Safe for concurrent use with Add.
func (s *SharedTable) Get(u, v uint32) (float64, bool) {
	key := hashtable.Key(u, v)
	return s.shards[hashtable.ShardOf(key, s.shardBits)].Get(u, v)
}

// Len returns the number of distinct keys across all shards.
func (s *SharedTable) Len() int {
	n := 0
	for _, t := range s.shards {
		n += t.Len()
	}
	return n
}

// Drain returns every shard's entries in one parallel pass over all their
// slots (hashtable.DrainShards).
func (s *SharedTable) Drain() (us, vs []uint32, ws []float64) {
	return hashtable.DrainShards(s.shards)
}

// DrainCSR groups the entries of every shard by source vertex into CSR
// arrays in one bucketed drain over all shards (hashtable.DrainShardsCSR):
// bit-identical to what an unsharded table holding the same aggregate would
// produce, because the full key sort erases shard routing and slot order.
// Must not run concurrently with Add.
func (s *SharedTable) DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	return hashtable.DrainShardsCSR(s.shards, numRows)
}

// MemoryBytes returns the aggregate footprint across shards.
func (s *SharedTable) MemoryBytes() int64 {
	var n int64
	for _, t := range s.shards {
		n += t.MemoryBytes()
	}
	return n
}

// PeakMemoryBytes sums each shard's storage high-water mark (including
// grow transients). Shards grow independently, so the sum slightly
// overstates the instantaneous peak unless every shard grew at once — a
// conservative bound, which is the useful direction for capacity planning.
func (s *SharedTable) PeakMemoryBytes() int64 {
	var n int64
	for _, t := range s.shards {
		n += t.PeakMemoryBytes()
	}
	return n
}

// Shards reports the shard count (1 for the unsharded mode).
func (s *SharedTable) Shards() int { return len(s.shards) }

// RunWorkload drives an aggregator with a deterministic synthetic sample
// stream (nWorkers × perWorker samples over a keyspace with the given
// number of distinct edges) and returns total drained weight. Used by
// tests and benchmarks to compare strategies on identical input.
func RunWorkload(agg Aggregator, workers, perWorker, distinct int, seed uint64) float64 {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			s := newStream(seed, uint64(id))
			for i := 0; i < perWorker; i++ {
				k := s.next(distinct)
				agg.Add(id, uint32(k), uint32(k>>4), 1)
			}
		}(w)
	}
	wg.Wait()
	_, _, ws := agg.Drain()
	var total float64
	for _, w := range ws {
		total += w
	}
	return total
}

// stream is a tiny deterministic generator decoupled from internal/rng to
// keep this package's dependencies minimal.
type stream struct{ state uint64 }

func newStream(seed, id uint64) *stream {
	return &stream{state: seed*0x9e3779b97f4a7c15 + id + 1}
}

func (s *stream) next(n int) int {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return int(s.state % uint64(n))
}

// Par ensures the package exposes the worker count used by benchmarks.
func Par() int { return par.Workers() }

package sampler

import (
	"lightne/internal/aggregate"
	"lightne/internal/hashtable"
)

// Sink is the aggregation target a sampling pass accumulates into: the
// lock-free hash table mapping packed (u', v') keys to fixed-point weights,
// either as a single table or sharded across sub-tables routed by high hash
// bits (aggregate.NewShardedTable). The sampler only needs the insert hot
// path (AddFixed) plus the drain/introspection surface the downstream
// sparsifier hand-off uses.
//
// Both implementations produce bit-identical DrainCSR output for the same
// accumulated multiset: fixed-point accumulation is exact and commutative,
// and the fully-sorted radix grouping erases shard routing and slot order.
type Sink interface {
	// AddFixed accumulates a 44.20 fixed-point weight onto a packed key.
	// Safe for concurrent use.
	AddFixed(key, fixed uint64)
	// AddFixedBatch accumulates many (key, fixed-point weight) pairs at
	// once, parallelizing the inserts internally — equivalent to calling
	// AddFixed per pair. Sharded sinks radix-partition the batch on
	// hashtable.ShardOf first so each worker owns a shard range and the
	// atomic insert path runs contention-free; the single table falls back
	// to parallel chunks over the lock-free AddFixed. Safe for concurrent
	// use with AddFixed. len(keys) must equal len(fixed).
	AddFixedBatch(keys, fixed []uint64)
	// Get returns the accumulated weight for (u, v).
	Get(u, v uint32) (float64, bool)
	// Len returns the number of distinct keys.
	Len() int
	// MemoryBytes reports the sink's storage footprint.
	MemoryBytes() int64
	// PeakMemoryBytes reports the storage high-water mark over the sink's
	// lifetime, including grow transients where old and new slot arrays
	// coexist. >= MemoryBytes; equal when no growth occurred.
	PeakMemoryBytes() int64
	// Drain returns all entries as parallel slices (unordered). Must not be
	// called concurrently with AddFixed.
	Drain() (us, vs []uint32, ws []float64)
	// DrainCSR returns the entries grouped by source vertex with columns
	// sorted — a pure function of the accumulated multiset. Must not be
	// called concurrently with AddFixed.
	DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64)
}

// Compile-time checks that both aggregation backends satisfy Sink.
var (
	_ Sink = (*hashtable.Table)(nil)
	_ Sink = (*aggregate.SharedTable)(nil)
)

// NewSink returns the aggregation sink for a sampling pass: the plain shared
// table for shards <= 1, or a sharded table (shards rounded up to a power of
// two) that confines grow-lock stalls to one shard when the capacity hint is
// wrong.
func NewSink(capacityHint, shards int) Sink {
	if shards <= 1 {
		return hashtable.New(capacityHint)
	}
	return aggregate.NewShardedTable(capacityHint, shards)
}

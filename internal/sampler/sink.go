package sampler

import (
	"math/bits"

	"lightne/internal/aggregate"
	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Sink is the aggregation target a sampling pass accumulates into: the
// concurrent hash table mapping packed (u', v') keys to fixed-point weights,
// either as a single table or sharded across sub-tables routed by high hash
// bits (aggregate.NewShardedTable). The sampler inserts only in batches
// (AddFixedBatch) and reads back through the drain/introspection surface the
// downstream sparsifier hand-off uses.
//
// Both implementations produce bit-identical DrainCSR output for the same
// accumulated multiset: fixed-point accumulation is exact and commutative,
// and the fully sorted grouping erases shard routing and slot order.
type Sink interface {
	// AddFixedBatch accumulates many (key, 44.20 fixed-point weight) pairs.
	// A batch of at most hashtable.BatchGrain pairs on a single table runs
	// inline on the caller under one lock acquisition; longer batches
	// parallelize internally. Sharded sinks group the batch by
	// hashtable.ShardOf first, and a large batch gives each worker one
	// shard's run to insert with plain stores under that shard's write lock.
	// Safe for concurrent use. len(keys) must equal len(fixed).
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
	// called concurrently with inserts.
	Drain() (us, vs []uint32, ws []float64)
	// DrainCSR returns the entries grouped by source vertex with columns
	// sorted — a pure function of the accumulated multiset. Must not be
	// called concurrently with inserts.
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

// SinkBytes is the slot footprint of NewSink(capacityHint, shards).
func SinkBytes(capacityHint, shards int) int64 {
	n := 1 << bits.Len(uint(max(shards, 1)-1))
	return int64(n) * hashtable.SlotBytes((capacityHint+n-1)/n)
}

// pairBuf is one chunk's pending oriented pairs for a per-arc sampler: each
// head deposits (e0, e1) and (e1, e0) with its weight, and the buffer
// flushes through the sink's batch insert every hashtable.BatchGrain pairs —
// a batch the sink inserts inline on the calling worker.
type pairBuf struct {
	sink        Sink
	keys, fixed []uint64
}

// add buffers both orientations of one head, flushing when full.
func (b *pairBuf) add(e0, e1 uint32, fixed uint64) {
	b.keys = append(b.keys, hashtable.Key(e0, e1), hashtable.Key(e1, e0))
	b.fixed = append(b.fixed, fixed, fixed)
	if len(b.keys) >= hashtable.BatchGrain {
		b.flush()
	}
}

// flush inserts the pending pairs.
func (b *pairBuf) flush() {
	if len(b.keys) > 0 {
		b.sink.AddFixedBatch(b.keys, b.fixed)
		b.keys, b.fixed = b.keys[:0], b.fixed[:0]
	}
}

// forBuffered runs body over [0, n) in par.ForRange chunks, handing each
// chunk its own pair buffer into sink and flushing it when the chunk ends.
func forBuffered(sink Sink, n, grain int, body func(lo, hi int, buf *pairBuf)) {
	par.ForRange(n, grain, func(lo, hi int) {
		buf := pairBuf{sink, make([]uint64, 0, hashtable.BatchGrain), make([]uint64, 0, hashtable.BatchGrain)}
		body(lo, hi, &buf)
		buf.flush()
	})
}

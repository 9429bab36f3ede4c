package sampler

import (
	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Sink is the aggregation target a sampling pass accumulates into: the
// concurrent hash table mapping packed (u', v') keys to fixed-point weights,
// in Config.Shards shards. The sampler inserts only in batches
// (AddFixedBatch), and the sparsifier hand-off reads it back through
// DrainCSR, which is bit-identical for every shard count.
type Sink = *hashtable.Table

// NewSink returns the aggregation sink for a sampling pass.
func NewSink(capacityHint, shards int) Sink { return hashtable.New(capacityHint, shards) }

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

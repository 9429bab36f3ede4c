package sampler

import (
	"fmt"

	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Sink is what a sampling pass hands the sparsifier (core.EmbedTable): its
// aggregate, packed (u', v') keys with fixed-point weights, drained as CSR
// arrays grouped by source vertex with ascending columns. The per-arc and
// incremental passes accumulate into a *hashtable.Table, which holds
// O(distinct) entries however many samples stream in; the batched pass
// returns its pairs already grouped. The drained CSR is a pure function of
// the pass's pair multiset either way.
type Sink interface {
	DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64)
}

// NewSink returns the hash table a per-arc or incremental pass accumulates
// into, presized for capacityHint distinct keys in shards shards.
func NewSink(capacityHint, shards int) *hashtable.Table { return hashtable.New(capacityHint, shards) }

// grouped is a batched pass's aggregate: the CSR arrays hashtable.GroupCSR
// grouped its pairs into.
type grouped struct {
	rowPtr []int64
	cols   []uint32
	ws     []float64
}

// DrainCSR returns the grouped arrays themselves, not copies; the caller
// must not write them (netsmf.BuildMatrixCSR only reads them, scaling into a
// separate row chunk). numRows must be the vertex count of the sampled
// graph; DrainCSR panics otherwise.
func (c *grouped) DrainCSR(numRows int) ([]int64, []uint32, []float64) {
	if numRows != len(c.rowPtr)-1 {
		panic(fmt.Sprintf("sampler: DrainCSR over %d rows, the pass grouped %d", numRows, len(c.rowPtr)-1))
	}
	return c.rowPtr, c.cols, c.ws
}

// pairBuf is one chunk's pending oriented pairs for a per-arc sampler: each
// head deposits (e0, e1) and (e1, e0) with its weight, and the buffer
// flushes through the sink's batch insert every hashtable.BatchGrain pairs —
// a batch the sink inserts inline on the calling worker.
type pairBuf struct {
	sink        *hashtable.Table
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
func forBuffered(sink *hashtable.Table, n, grain int, body func(lo, hi int, buf *pairBuf)) {
	par.ForRange(n, grain, func(lo, hi int) {
		buf := pairBuf{sink, make([]uint64, 0, hashtable.BatchGrain), make([]uint64, 0, hashtable.BatchGrain)}
		body(lo, hi, &buf)
		buf.flush()
	})
}

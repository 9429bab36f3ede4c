package sampler

import (
	"fmt"

	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Sink is what a sampling pass hands the sparsifier (core.EmbedTable): its
// aggregate, packed (u', v') keys with fixed-point weights, drained as CSR
// arrays grouped by source vertex with ascending columns. Sample and
// SampleBatched return their pairs already grouped; the incremental pass
// accumulates into a *hashtable.Table, which holds O(distinct) entries
// however many samples stream in. The drained CSR is a pure function of the
// pass's pair multiset either way.
type Sink interface {
	DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64)
}

// NewSink returns the hash table an incremental pass accumulates into,
// presized for capacityHint distinct keys in shards shards.
func NewSink(capacityHint, shards int) *hashtable.Table { return hashtable.New(capacityHint, shards) }

// grouped is a full pass's aggregate: the CSR arrays
// hashtable.GroupSymmetricCSR grouped its pairs into.
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

// group groups a full pass's one-orientation pairs, one per head of stats,
// given as segments, over n vertices and fills the grouping fields of
// stats: DistinctEntries, the grouped CSR's footprint as TableBytes, and as
// PeakTableBytes that plus the bucket scatter the pairs sort in and the
// upper triangle the CSR is mirrored from (at most half the entries plus
// one per row), which coexist.
func group(keys, fixed [][]uint64, n int, stats *Stats) Sink {
	out := &grouped{}
	out.rowPtr, out.cols, out.ws = hashtable.GroupSymmetricCSR(keys, fixed, n)
	stats.DistinctEntries = len(out.cols)
	stats.TableBytes = 8*int64(n+1) + 12*int64(len(out.cols))
	stats.PeakTableBytes = stats.TableBytes + hashtable.GroupScatterBytes(int(stats.Heads), n) + 8*int64(n+1) + 6*int64(len(out.cols)+n)
	return out
}

// segPairs is the pair count of one pairSegs segment.
const segPairs = 1 << 14

// pairSegs is one worker's pairs for a full pass, one per head in one
// orientation (hashtable.SymmetricPair), in segments of segPairs pairs that
// never move once allocated: unlike one growing slice, nothing is copied and
// at most one segment is partly empty.
type pairSegs struct{ keys, fixed [][]uint64 }

// add appends the pair of one head with endpoints (e0, e1).
func (b *pairSegs) add(e0, e1 uint32, fixed uint64) {
	if n := len(b.keys); n == 0 || len(b.keys[n-1]) == segPairs {
		b.keys, b.fixed = append(b.keys, make([]uint64, 0, segPairs)), append(b.fixed, make([]uint64, 0, segPairs))
	}
	key, f := hashtable.SymmetricPair(e0, e1, fixed)
	last := len(b.keys) - 1
	b.keys[last], b.fixed[last] = append(b.keys[last], key), append(b.fixed[last], f)
}

// pairBuf is one chunk's pending oriented pairs for the incremental pass: each
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

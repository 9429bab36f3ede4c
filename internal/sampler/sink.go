package sampler

import (
	"fmt"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/rng"
)

// Sink is what a sampling pass hands the sparsifier (core.EmbedTable): its
// aggregate, packed (u', v') keys with fixed-point weights, drained as CSR
// arrays grouped by source vertex with ascending columns. Every pass's pairs
// are grouped by Group. The drained CSR is a pure function of the pair
// multiset, so a hashtable.Table that took the same pairs, drained and
// grouped by hashtable.GroupCSR, gives the same arrays bit for bit.
type Sink interface {
	DrainCSR(numRows int) (rowPtr []int64, cols []uint32, ws []float64)
}

// NewSink returns the paper's aggregation table (§4.2), presized for
// capacityHint distinct keys, which no sampling pass builds; the benchmark
// harness's table probe inserts into it. shards is ignored: the table is one
// region. NewSink goes with that probe (ROADMAP items 1 and 15).
func NewSink(capacityHint, shards int) *hashtable.Table { return hashtable.New(capacityHint) }

// grouped is a pass's aggregate: the CSR arrays
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

// Group groups a pass's one-orientation pairs, one per head of stats, given
// as segments (read where they lie, not modified), over n vertices and fills
// the grouping fields of stats: DistinctEntries, the grouped CSR's footprint
// as TableBytes, and as PeakTableBytes that plus the bucket scatter the pairs
// sort in and the upper triangle the CSR is mirrored from (at most half the
// entries plus one per row), which coexist.
func Group(keys, fixed [][]uint64, n int, stats *Stats) Sink {
	out := &grouped{}
	out.rowPtr, out.cols, out.ws = hashtable.GroupSymmetricCSR(keys, fixed, n)
	stats.DistinctEntries = len(out.cols)
	stats.TableBytes = 8*int64(n+1) + 12*int64(len(out.cols))
	stats.PeakTableBytes = stats.TableBytes + hashtable.GroupScatterBytes(int(stats.Heads), n) + 8*int64(n+1) + 6*int64(len(out.cols)+n)
	return out
}

// segPairs is the pair count of one pairSegs segment.
const segPairs = 1 << 14

// pairSegs is one worker's pairs for a pass, one per head in one
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

// draw runs ne trials of arc (u, v) at downsampling probability pe: each
// trial passes the coin with probability pe, and each head walks a length
// drawn uniformly from [1, t] (PathSample) and deposits its endpoints' pair
// with weight 1/pe. It returns the number of heads.
func (b *pairSegs) draw(g *graph.Graph, u, v uint32, ne int64, pe float64, t int, src *rng.Source) (heads int64) {
	fixed := hashtable.ToFixed(1 / pe)
	for k := int64(0); k < ne; k++ {
		if pe < 1 && !src.Bernoulli(pe) {
			continue
		}
		heads++
		ue, ve := PathSample(g, u, v, 1+src.Intn(t), src)
		b.add(ue, ve, fixed)
	}
	return heads
}

// segments lists the workers' segments, worker by worker.
func segments(bufs []pairSegs) (keys, fixed [][]uint64) {
	for _, b := range bufs {
		keys, fixed = append(keys, b.keys...), append(fixed, b.fixed...)
	}
	return keys, fixed
}

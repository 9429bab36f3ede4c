package sampler

import (
	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Stage 3 of the wave pipeline: sink insertion.
//
// A finished wave's heads are turned into the two oriented (key, fixed)
// pairs each head deposits and handed to the Sink's bulk path, on a
// goroutine that can overlap inserting wave k with walking wave k+1 — but a
// pass of one wave, as under the default 2^22-head wave, walks, then
// inserts. Sink.AddFixedBatch runs the insert in parallel: a sharded sink
// partitions the keys by shard and home window, and each worker inserts a
// shard's run window by window with plain stores under the shard's write
// lock; a one-shard table runs its shared kernel over parallel chunks.

// drainGrain is the per-chunk head count when building oriented key pairs.
const drainGrain = 2048

// drainBuf holds the oriented-pair scratch reused across waves by the drain
// goroutine.
type drainBuf struct {
	keys  []uint64
	fixed []uint64
}

// drainWave inserts one finished wave into the sink.
func (d *drainBuf) drainWave(table Sink, wave []headRec) {
	need := 2 * len(wave)
	if need == 0 {
		return
	}
	if cap(d.keys) < need {
		d.keys = make([]uint64, need)
		d.fixed = make([]uint64, need)
	}
	keys := d.keys[:need]
	fixed := d.fixed[:need]
	par.ForRange(len(wave), drainGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h := wave[i]
			keys[2*i] = hashtable.Key(h.e0, h.e1)
			keys[2*i+1] = hashtable.Key(h.e1, h.e0)
			fixed[2*i] = h.fixed
			fixed[2*i+1] = h.fixed
		}
	})
	table.AddFixedBatch(keys, fixed)
}

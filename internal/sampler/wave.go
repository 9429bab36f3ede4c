package sampler

import (
	"math/bits"
	"slices"

	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// Stage 2 of the wave pipeline: lock-step wave walking.
//
// runWave advances every walk of one wave to completion. Only stepping sides
// enter the state array; the others end at the arc end their head record
// holds. The states stay grouped by current vertex (the locality batching of
// §4.2): each round's visit advances every state one step, counting per
// block the digit of the vertex it moves to, and a side taking its last step
// writes its endpoint and becomes a tombstone. One stable scatter into the
// other buffer then regroups the live states by digit and drops the
// tombstones. Round 0 counts and scatters from the head records. A digit is
// the top bits of a vertex id, at most regroupBits; wider ids sort each
// digit's bucket in cache. Step k is drawn in round k.
//
// Every step is one keyed-hash draw, rng.Hash64(seed^walkSeedTag,
// ghead<<10 | step<<1 | side), reduced to a neighbor index by a
// multiply-shift (bias < 2^-32 for 32-bit vertex ids) or, on weighted
// graphs, through the vertex's Vose alias table
// (graph.NeighborCursor.AliasNeighbor). A draw depends on nothing but
// (head, side, step), so endpoints are a pure function of (graph, seed,
// heads): independent of waveSize, GOMAXPROCS and order.

// walkSeedTag distinguishes walk-step streams from enumeration streams.
const walkSeedTag = 0xba7c4ed

const walkGrain = 1024

// regroupBits is the widest regroup digit: a block's 2^14 counters and the
// scatter's write cursors stay in L2.
const regroupBits = 14

// runWave walks one wave to completion, writing each stepping side's
// endpoint into its head. states and scratch hold at least the wave's
// stepping sides; base is the wave's first global head index; cursors holds
// one NeighborCursor per worker index, positioned once per run of states at
// one vertex (a compressed graph decodes each block once per run); the
// cursor changes how a neighbor is fetched, never which one.
func runWave(g *graph.Graph, wave []headRec, states, scratch []uint64, cursors []graph.NeighborCursor, seed, base uint64) {
	rg := regroup{idBits: bits.Len32(uint32(g.NumVertices() - 1))}
	bounds := rg.cut(len(wave), 2*len(wave))
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row, shift := rg.row(b), rg.shift
		for _, h := range wave[lo:hi] {
			row[h.e0>>shift] += int(min(h.s0, 1))
			row[h.e1>>shift] += int(min(h.s1, 1))
		}
	})
	n := rg.scan()
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row, shift := rg.row(b), rg.shift
		for i := lo; i < hi; i++ {
			if h := wave[i]; h.s0 > 0 {
				place(states, row, packState(h.e0, int(h.s0), 0, i), shift)
			}
			if h := wave[i]; h.s1 > 0 {
				place(states, row, packState(h.e1, int(h.s1), 1, i), shift)
			}
		}
	})
	rg.sortBuckets(states[:n])

	walkSeed := seed ^ walkSeedTag
	weighted := g.Weighted()
	for round := 0; n > 0; round++ {
		bounds = rg.cut(n, n)
		par.WorkerBlocks(bounds, func(worker, b, lo, hi int) {
			nc := &cursors[worker]
			row, shift := rg.row(b), rg.shift
			for rs := lo; rs < hi; {
				cur := uint32(states[rs] >> batchCurOff)
				re := rs + 1
				for re < hi && uint32(states[re]>>batchCurOff) == cur {
					re++
				}
				d := g.Degree(cur)
				if d > 0 {
					nc.Begin(cur, re-rs) // picks full vs lazy decode by run size
				}
				for i := rs; i < re; i++ {
					st := states[i]
					steps := int(st>>batchStepOff) & (1<<batchStepBits - 1)
					head := int(st & (MaxWaveHeads - 1))
					side := st >> batchSideBit & 1
					next := cur // isolated: stay (cannot happen on symmetric graphs)
					if d > 0 {
						draw := rng.Hash64(walkSeed, (base+uint64(head))<<10|uint64(round)<<1|side)
						if weighted {
							next = nc.AliasNeighbor(draw)
						} else {
							pick, _ := bits.Mul64(draw, uint64(d))
							next = nc.Neighbor(int(pick))
						}
					}
					if steps > 1 {
						states[i] = packState(next, steps-1, int(side), head)
						row[next>>shift]++
						continue
					}
					// Last step: record the endpoint and retire the side.
					if side == 0 {
						wave[head].e0 = next
					} else {
						wave[head].e1 = next
					}
					states[i] = stateTombstone
				}
				rs = re
			}
		})
		n = rg.scan()
		par.ForBlocks(bounds, func(b, lo, hi int) {
			row, shift := rg.row(b), rg.shift
			for _, st := range states[lo:hi] {
				if st != stateTombstone {
					place(scratch, row, st, shift)
				}
			}
		})
		states, scratch = scratch, states
		rg.sortBuckets(states[:n])
	}
}

// place writes state st at its digit's cursor in row and advances it.
func place(dst []uint64, row []int, st uint64, shift uint) {
	d := st >> batchCurOff >> shift
	dst[row[d]] = st
	row[d]++
}

// regroup holds the digit and per-block counters of one regroup: digit d
// holds the vertices v with v>>shift == d.
type regroup struct {
	idBits, digits int
	shift          uint
	cnt            []int // digits counters per block; scan makes them write cursors
}

// cut picks the digit for grouping at most states states and cuts items into
// blocks with cleared counters.
func (r *regroup) cut(items, states int) []int {
	r.shift = uint(max(0, r.idBits-min(regroupBits, bits.Len(uint(states)))))
	r.digits = 1 << (r.idBits - int(r.shift))
	bounds := par.Blocks(items, walkGrain)
	r.cnt = slices.Grow(r.cnt[:0], (len(bounds)-1)*r.digits)[:(len(bounds)-1)*r.digits]
	clear(r.cnt)
	return bounds
}

// row returns block b's counters.
func (r *regroup) row(b int) []int { return r.cnt[b*r.digits : (b+1)*r.digits] }

// scan turns the counts into stable write cursors, digit-major and
// block-minor, and returns the total.
func (r *regroup) scan() int {
	var pos int
	for d := 0; d < r.digits; d++ {
		for c := d; c < len(r.cnt); c += r.digits {
			r.cnt[c], pos = pos, pos+r.cnt[c]
		}
	}
	return pos
}

// sortBuckets sorts each bucket of a scatter whose digits span several
// vertices, in cache; the states are distinct, so the order is unique. After
// the scatter the last block's cursors are the bucket ends.
func (r *regroup) sortBuckets(states []uint64) {
	if r.shift > 0 {
		ends := r.row(len(r.cnt)/r.digits - 1)
		par.ForBlocks(append([]int{0}, ends...), func(_, lo, hi int) { slices.Sort(states[lo:hi]) })
	}
}

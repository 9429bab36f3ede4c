package sampler

import (
	"math/bits"

	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/radix"
	"lightne/internal/rng"
)

// Stage 2 of the wave pipeline: lock-step wave walking.
//
// runWave advances every walk of one wave to completion. Only stepping sides
// enter the state array: a side with no steps ends at the arc end its head
// record already holds. Each round radix-groups the states by current vertex
// (the locality batching of §4.2; a partial sort over only the vertex-id
// bytes) and advances each one step; a side taking its last step writes its
// endpoint and becomes a tombstone in the same visit, and the count/scan/fill
// compaction drops it before the next sort. Every live state advances once
// per round, so step k is drawn in round k.
//
// Every step is one keyed-hash draw, rng.Hash64(seed^walkSeedTag,
// ghead<<10 | step<<1 | side), reduced to a neighbor index by a
// multiply-shift (bias < 2^-32 for 32-bit vertex ids) or, on weighted
// graphs, through the vertex's Vose alias table (graph.AliasNeighbor). A draw
// depends on nothing but (head, side, step), so endpoints are a pure function
// of (graph, seed, heads): independent of waveSize, GOMAXPROCS and order.

// walkSeedTag distinguishes walk-step streams from enumeration streams.
const walkSeedTag = 0xba7c4ed

const (
	walkGrain    = 1024
	compactGrain = 4096
)

// runWave walks one wave to completion, writing each stepping side's
// endpoint into its head. states and scratch hold at least the wave's
// stepping sides; base is the wave's first global head index; cursors holds
// one NeighborCursor per worker index. A worker positions its cursor once per
// run of states parked at one vertex, so a compressed graph decodes each
// needed block once per group instead of once per state; the cursor strategy
// changes how a neighbor is fetched, never which one.
func runWave(g *graph.Graph, wave []headRec, states, scratch []uint64, cursors []graph.NeighborCursor, seed, base uint64) {
	bounds := par.Blocks(len(wave), walkGrain)
	offs := make([]int64, len(bounds)-1)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		for _, h := range wave[lo:hi] {
			offs[b] += int64(min(h.s0, 1) + min(h.s1, 1))
		}
	})
	n := int(par.ExclusiveScan(offs))
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := offs[b]
		for i := lo; i < hi; i++ {
			h := wave[i]
			if h.s0 > 0 {
				states[w] = packState(h.e0, int(h.s0), 0, i)
				w++
			}
			if h.s1 > 0 {
				states[w] = packState(h.e1, int(h.s1), 1, i)
				w++
			}
		}
	})

	// The current vertex lives in the top 32 bits; only the bytes that can
	// be nonzero for vertex ids < NumVertices need counting passes.
	curBytes := max(1, (bits.Len32(uint32(g.NumVertices()-1))+7)/8)
	walkSeed := seed ^ walkSeedTag
	weighted := g.Weighted()
	for round := 0; n > 0; round++ {
		radix.SortBytesBuf(states[:n], scratch, 4, 4+curBytes)
		par.WorkerFor(n, walkGrain, func(worker, lo, hi int) {
			nc := &cursors[worker]
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
		n = compactStates(states[:n], scratch)
		states, scratch = scratch, states
	}
}

// compactStates writes src's live (non-tombstone) states into dst in order
// and returns how many there are: per-block live counts, an exclusive scan
// for stable offsets, and an exact-fit parallel fill.
func compactStates(src, dst []uint64) int {
	bounds := par.Blocks(len(src), compactGrain)
	counts := make([]int64, len(bounds)-1)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if src[i] != stateTombstone {
				c++
			}
		}
		counts[b] = c
	})
	total := par.ExclusiveScan(counts)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			if src[i] != stateTombstone {
				dst[w] = src[i]
				w++
			}
		}
	})
	return int(total)
}

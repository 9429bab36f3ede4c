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
// runWave advances every walk of one wave to completion. Between steps the
// packed states are radix-grouped by their current vertex (the locality
// batching of §4.2) — a *partial* sort over only the bytes holding the
// vertex id, since within-group order is irrelevant — and finished states
// are compacted out with the same count/scan/fill shape as the drain path,
// replacing the serial tombstone sweep.
//
// Every walk step is one keyed-hash draw: rng.Hash64(seed^walkSeedTag,
// ghead<<10 | step<<1 | side) yields 64 uniform bits, reduced to a neighbor
// index by a multiply-shift (bias < degree/2^64, i.e. < 2^-32 for 32-bit
// vertex ids — far below the sampler's statistical noise). On weighted
// graphs the same single draw resolves a Vose alias-table lookup instead:
// high bits pick the slot, low 32 bits are the acceptance coin (see
// graph.AliasNeighbor and DESIGN.md "Weighted walking"). Either way draws
// are unique per (head, side, step) and depend on nothing but the
// head's identity, which makes endpoints a pure function of (graph, seed,
// heads) — independent of wave membership (waveSize), chunk geometry
// (GOMAXPROCS) and state order (the grouping). Earlier revisions built a
// full xoshiro stream per draw (four SplitMix64 finalizations plus a
// rejection loop) to get the same guarantee; the single-mix hash keeps it
// at roughly a quarter of the seeding cost — the ~13% single-core
// determinism tax ROADMAP carried. The serial-flush reference seeds streams
// per chunk instead, which ties its output to the worker count.

// walkSeedTag distinguishes walk-step streams from enumeration streams.
const walkSeedTag = 0xba7c4ed

const (
	walkGrain    = 1024
	compactGrain = 4096
)

// runWave walks one wave to completion, overwriting each head's (e0, e1)
// with its walk endpoints. states and scratch are caller-owned buffers of
// length >= 2*len(wave), reused across waves; base is the wave's first
// global head index; cursors holds one NeighborCursor per worker index
// (len >= par.Workers()), reused across rounds and waves.
//
// Because states are radix-grouped by current vertex before each round, the
// advance loop sees runs of states parked at the same vertex. Each worker
// walks its chunk run by run and positions its NeighborCursor once per run:
// on compressed graphs that decodes each needed block once per group (a full
// sequential decode when the run covers the adjacency, a cached single-block
// decode otherwise) instead of re-decoding a block prefix per state — the
// difference between O(states x blockSize) and O(blocks touched) varint work
// per vertex per round. On uncompressed graphs the cursor is a plain slice
// view and the loop is unchanged in cost. Draws stay keyed by (head, side,
// step), so the grouping, chunking and cursor strategy cannot affect output.
func runWave(g *graph.Graph, wave []headRec, states, scratch []uint64, cursors []graph.NeighborCursor, seed, base uint64) {
	n := 2 * len(wave)
	if n == 0 {
		return
	}
	par.ForRange(len(wave), walkGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h := wave[i]
			states[2*i] = packState(h.e0, int(h.s0), 0, i)
			states[2*i+1] = packState(h.e1, int(h.s1), 1, i)
		}
	})

	// The current vertex lives in the top 32 bits; only the bytes that can
	// be nonzero for vertex ids < NumVertices need counting passes.
	curBytes := (bits.Len32(uint32(g.NumVertices()-1)) + 7) / 8
	if curBytes == 0 {
		curBytes = 1
	}

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
				begun := false
				for i := rs; i < re; i++ {
					st := states[i]
					steps := int(st>>batchStepOff) & (1<<batchStepBits - 1)
					head := int(st & (MaxWaveHeads - 1))
					side := st >> batchSideBit & 1
					if steps == 0 {
						if side == 0 {
							wave[head].e0 = cur
						} else {
							wave[head].e1 = cur
						}
						states[i] = stateTombstone
						continue
					}
					// step index == round: all live states advance once per
					// round.
					next := cur // isolated: stay (cannot happen on symmetric graphs)
					if d > 0 {
						if !begun {
							// Position once per run; the cursor picks a full
							// decode vs lazy per-block strategy from the run
							// size.
							nc.Begin(cur, re-rs)
							begun = true
						}
						draw := rng.Hash64(walkSeed, (base+uint64(head))<<10|uint64(round)<<1|side)
						if weighted {
							next = nc.AliasNeighbor(draw)
						} else {
							pick, _ := bits.Mul64(draw, uint64(d))
							next = nc.Neighbor(int(pick))
						}
					}
					states[i] = packState(next, steps-1, int(side), head)
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
// for stable offsets, and an exact-fit parallel fill — the same two-pass
// shape as the hash-table drain, replacing the serial sweep that used to
// serialize every round.
func compactStates(src, dst []uint64) int {
	bounds := par.Blocks(len(src), compactGrain)
	nb := len(bounds) - 1
	if nb <= 1 {
		out := 0
		for _, st := range src {
			if st != stateTombstone {
				dst[out] = st
				out++
			}
		}
		return out
	}
	counts := make([]int64, nb)
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

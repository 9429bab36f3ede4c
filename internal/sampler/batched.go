package sampler

import (
	"fmt"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
)

// Batched walking — the locality optimization the paper names as future
// work (§4.2): "batching multiple random walks accessing the same (or
// nearby vertices) together ... via a semisort, or a partial radix-sort".
//
// SampleBatched draws the same trial distribution as Sample but advances
// all in-flight walks in lock step: between steps the walk states are
// regrouped by their current vertex, so each step scans vertices in order
// and every walk positioned at a vertex consumes its adjacency while it is
// cache-hot — sequential reads instead of Sample's random reads.
//
// The pass runs in three stages (see DESIGN.md "Wave pipeline"): stage 1
// (enumerate.go) generates every head up front, running each vertex's RNG
// stream once, so the trial distribution and per-head weights are identical
// to a serial enumeration; stage 2 (wave.go) walks one wave of heads at a
// time, every stepping side in lock step until its last step; stage 3
// turns every walked head into one (key, fixed) pair of one orientation and
// groups them all with hashtable.GroupUpperCSR — one bucketed sort that
// merges equal keys — into the upper triangle of the aggregate, as Sample
// does. The pass holds
// every head before it walks, so sorting its pairs costs no more memory
// than they take, and no aggregation table is built. The default wave
// holds 2^22 heads, more than an RMAT-13 pass at M = 2·T·m draws (~0.8 M),
// so such a pass walks in one wave. Walk steps are single keyed-hash draws
// (rng.Hash64 keyed by (global head, side, step) — see wave.go), and the
// fixed-point sums are exact and commutative, so the grouped arrays are a
// pure function of (graph, config): bit-identical across waveSize and
// GOMAXPROCS, and to a table that took the same pairs in both
// orientations, drained and grouped by hashtable.GroupCSR.
//
// Walk states pack into one uint64 so the regroup scatter is the only data
// movement:
//
//	cur(32) | steps(9) | side(1) | head(22)
//
// which caps walk length at 512 (T ≤ 512) and the wave size at 2^22 heads;
// larger budgets process in multiple waves.

const (
	batchHeadBits = 22
	batchSideBit  = batchHeadBits
	batchStepBits = 9
	batchStepOff  = batchHeadBits + 1
	batchCurOff   = batchStepOff + batchStepBits
)

// MaxWaveHeads is the most heads one wave holds (the packed head field's
// range): SampleBatched's default and cap for waveSize.
const MaxWaveHeads = 1 << batchHeadBits

func packState(cur uint32, steps int, side int, head int) uint64 {
	return uint64(cur)<<batchCurOff |
		uint64(steps)<<batchStepOff |
		uint64(side)<<batchSideBit |
		uint64(head)
}

// stateTombstone marks a retired walk state, which the regroup drops.
const stateTombstone = ^uint64(0)

// headRec is one enumerated walk head: the arc it was drawn from, the split
// walk lengths, and the importance weight it deposits. The endpoint fields
// double as storage — enumeration writes the arc (u, v), and the wave
// overwrites each stepping side's field with its walk endpoint before the
// pairs are built from them. 24 bytes per head.
type headRec struct {
	fixed  uint64 // importance weight 1/p_e, fixed point
	e0, e1 uint32 // arc (u, v) at enumeration; walk endpoints after the wave
	s0, s1 uint16 // remaining steps on each side: s and r-1-s
}

// SampleBatched runs the downsampled PathSampling pass with batched walks
// and returns its aggregate grouped into the upper triangle over g's
// vertices. Weighted graphs walk natively: head enumeration uses the
// weighted per-arc budget (M·w_e/vol trials, ProbW over strengths) and each
// walk step resolves a per-vertex Vose alias table from the same single
// keyed-hash draw the unweighted path uses (see
// graph.NeighborCursor.AliasNeighbor). waveSize caps concurrently in-flight
// heads; <= 0 picks the maximum (2^22). The grouped aggregate is
// bit-identical for every waveSize and worker count. Of cfg, Shards selects
// nothing: it is checked, not used.
func SampleBatched(g *graph.Graph, cfg Config, waveSize int) (*Upper, Stats, error) {
	if err := cfg.Check(); err != nil {
		return nil, Stats{}, err
	}
	if cfg.T > 512 {
		return nil, Stats{}, fmt.Errorf("sampler: batched walking requires T <= 512, got %d", cfg.T)
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if g.NumEdges() == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	if waveSize <= 0 || waveSize > MaxWaveHeads {
		waveSize = MaxWaveHeads
	}

	cursors := newCursors(g)
	heads, stepping, stats := enumerateHeads(g, cfg, cursors)

	// The state buffers hold one wave's stepping sides.
	states := make([]uint64, min(stepping, 2*int64(min(waveSize, len(heads)))))
	scratch := make([]uint64, len(states))
	for lo := 0; lo < len(heads); lo += waveSize {
		runWave(g, heads[lo:min(lo+waveSize, len(heads))], states, scratch, cursors, cfg.Seed, uint64(lo))
	}

	// Every walked head deposits its one-orientation pair.
	keys, fixed := make([]uint64, len(heads)), make([]uint64, len(heads))
	par.ForRange(len(heads), pairGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i], fixed[i] = hashtable.SymmetricPair(heads[i].e0, heads[i].e1, heads[i].fixed)
		}
	})
	return Group([][]uint64{keys}, [][]uint64{fixed}, g.NumVertices(), &stats), stats, nil
}

// pairGrain is the per-chunk head count when building pairs.
const pairGrain = 2048

// newCursors returns one NeighborCursor per worker index.
func newCursors(g *graph.Graph) []graph.NeighborCursor {
	cursors := make([]graph.NeighborCursor, par.Workers())
	for i := range cursors {
		cursors[i] = g.NewNeighborCursor()
	}
	return cursors
}

package sampler

import (
	"fmt"

	"lightne/internal/graph"
	"lightne/internal/par"
)

// Batched walking — the locality optimization the paper names as future
// work (§4.2): "batching multiple random walks accessing the same (or
// nearby vertices) together ... via a semisort, or a partial radix-sort".
//
// SampleBatched draws the same trial distribution as Sample but advances
// all in-flight walks in lock step: between steps the walk states are
// radix-grouped by their current vertex, so each step scans vertices in
// order and every walk positioned at a vertex consumes its adjacency while
// it is cache-hot — sequential reads instead of Sample's random reads.
//
// The pass runs as a three-stage pipeline (see DESIGN.md "Wave pipeline"):
//
//	enumerate ──► wave walking ──► sink insertion
//	(parallel,     (parallel        (parallel, overlapped
//	 one pass)      advance +        with the NEXT wave's
//	                compaction)      walking)
//
// Stage 1 (enumerate.go) generates every head up front, running each
// vertex's RNG stream once, so the trial distribution and per-head weights
// are identical to a serial enumeration. Stage 2 (wave.go) advances one wave
// at a time, every stepping side in lock step until its last step. Stage 3
// (drain.go) inserts a finished wave's (e0, e1, fixed) heads into the Sink
// while the walker advances the next wave. Walk steps are single keyed-hash
// draws (rng.Hash64 keyed by (global head, side, step) — see wave.go), which
// makes the output a pure function of (graph, config): bit-identical across
// waveSize, Shards and GOMAXPROCS once drained through DrainCSR.
//
// Walk states pack into one uint64 so the radix grouping is the only data
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

// stateTombstone marks a retired walk state awaiting compaction.
const stateTombstone = ^uint64(0)

// headRec is one enumerated walk head: the arc it was drawn from, the split
// walk lengths, and the importance weight it deposits. The endpoint fields
// double as storage — enumeration writes the arc (u, v), and the wave
// overwrites each stepping side's field with its walk endpoint before the
// drain reads them. 24 bytes per head.
type headRec struct {
	fixed  uint64 // importance weight 1/p_e, fixed point
	e0, e1 uint32 // arc (u, v) at enumeration; walk endpoints after the wave
	s0, s1 uint16 // remaining steps on each side: s and r-1-s
}

// SampleBatched runs the downsampled PathSampling pass with radix-batched
// walks and the wave pipeline. Weighted graphs walk natively: head
// enumeration uses the weighted per-arc budget (M·w_e/vol trials, ProbW
// over strengths) and each walk step resolves a per-vertex Vose alias
// table from the same single keyed-hash draw the unweighted path uses
// (see graph.AliasNeighbor). waveSize caps concurrently in-flight
// heads; <= 0 picks the maximum (2^22). The drained aggregate is
// bit-identical for every waveSize, shard count and worker count.
func SampleBatched(g *graph.Graph, cfg Config, waveSize int) (Sink, Stats, error) {
	if cfg.T <= 0 || cfg.T > 512 {
		return nil, Stats{}, fmt.Errorf("sampler: batched walking requires 1 <= T <= 512, got %d", cfg.T)
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

	// Presize from the realized head count — known exactly after stage 1,
	// unlike Sample which must presize from an expectation.
	hint := cfg.TableSizeHint
	if hint <= 0 {
		hint = 2*len(heads) + 1024
	}
	table := NewSink(hint, cfg.Shards)

	pipelineWaves(g, table, heads, stepping, cursors, cfg.Seed, waveSize)

	stats.DistinctEntries = table.Len()
	stats.TableBytes = table.MemoryBytes()
	stats.PeakTableBytes = table.PeakMemoryBytes()
	return table, stats, nil
}

// newCursors returns one NeighborCursor per worker index.
func newCursors(g *graph.Graph) []graph.NeighborCursor {
	cursors := make([]graph.NeighborCursor, par.Workers())
	for i := range cursors {
		cursors[i] = g.NewNeighborCursor()
	}
	return cursors
}

// pipelineWaves drives stages 2 and 3: the walker (this goroutine) advances
// one wave of walks at a time, handing each finished wave to a drain
// goroutine that inserts its heads into the sink while the walker is already
// advancing the next wave. Wave slices are disjoint regions of the heads
// array and the channel send orders the walker's endpoint writes before the
// drain's reads, so the overlap is race-free. The channel holds at most one
// finished wave. The state buffers hold one wave's stepping sides.
func pipelineWaves(g *graph.Graph, table Sink, heads []headRec, stepping int64, cursors []graph.NeighborCursor, seed uint64, waveSize int) {
	states := make([]uint64, min(stepping, 2*int64(min(waveSize, len(heads)))))
	scratch := make([]uint64, len(states))
	waveCh := make(chan []headRec, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf drainBuf
		for wave := range waveCh {
			buf.drainWave(table, wave)
		}
	}()
	for lo := 0; lo < len(heads); lo += waveSize {
		wave := heads[lo:min(lo+waveSize, len(heads))]
		runWave(g, wave, states, scratch, cursors, seed, uint64(lo))
		waveCh <- wave
	}
	close(waveCh)
	<-done
}

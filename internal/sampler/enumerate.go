package sampler

import (
	"math"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// Stage 1 of the wave pipeline: parallel head enumeration, one pass.
//
// Every vertex draws from a stream seeded (cfg.Seed, u), so vertex blocks run
// in parallel. A draw-free pass sizes each block's region of one shared array
// from its expected head count plus slack; each block then runs its draws
// once, reading each adjacency sequentially through the worker's
// NeighborCursor, and writes each head once — into its region, or onto a
// spill slice in the rare block that outgrows it. Prefix sums over the block
// counts fix every head's global index, and the blocks are packed to the
// front in order: head i is head i of a serial vertex loop for every block
// geometry and worker count.

// enumGrain is the minimum vertex count per enumeration block.
const enumGrain = 32

// enumSlack sizes a block's region at E + enumSlack·(√E + 4) records for E
// expected heads: a block's head count is a sum of independent coins with
// variance at most 2E, so a region overflows with probability below 1e-4.
// Tests lower it to force the spill path.
var enumSlack = 6.0

// withSlack is the head count a buffer sized for e expected heads holds.
func withSlack(e float64) float64 { return e + enumSlack*(math.Sqrt(e)+4) }

// blockHeads sums M·w_e/vol·p_e (perUnit = M/vol; p_e = 1 for nil
// strengths) over the arcs out of vertices [lo, hi), read through nc.
func blockHeads(g *graph.Graph, nc *graph.NeighborCursor, c, perUnit float64, strengths []float64, lo, hi int) float64 {
	var e float64
	for ui := lo; ui < hi; ui++ {
		u := uint32(ui)
		du := g.Degree(u)
		if strengths != nil && du > 0 {
			nc.Begin(u, du)
		}
		for i := 0; i < du; i++ {
			ew, pe := g.EdgeWeight(u, i), 1.0
			if strengths != nil {
				pe = ProbW(c, ew, strengths[u], strengths[nc.Neighbor(i)])
			}
			e += perUnit * ew * pe
		}
	}
	return e
}

// ExpectedHeads is a pass's E[heads] = Σ_arcs (M·w_e/vol)·p_e, which
// core.EstimateMemory plans with. Its blocks
// (par.DetBounds) add in order: the same result at every GOMAXPROCS.
func ExpectedHeads(g *graph.Graph, cfg Config) float64 {
	if !cfg.Downsample {
		return float64(cfg.M)
	}
	c, perUnit, strengths := cfg.DownsampleC(g.NumVertices()), float64(cfg.M)/g.TotalWeight(), g.Strengths()
	cursors, bounds := newCursors(g), par.DetBounds(g.NumVertices())
	sums := make([]float64, len(bounds)-1)
	par.WorkerBlocks(bounds, func(w, b, lo, hi int) {
		sums[b] = blockHeads(g, &cursors[w], c, perUnit, strengths, lo, hi)
	})
	e := 0.0
	for _, s := range sums {
		e += s
	}
	return e
}

// enumerateHeads generates every walk head of the pass: for each arc
// (u, v), n_e = ⌊M·w_e/vol⌋ + Bernoulli({M·w_e/vol}) trials — the weighted
// per-arc budget the serial Sample path draws (w_e = 1 and vol = m for
// unweighted graphs, so the unweighted stream is unchanged bit for bit) —
// each surviving the downsampling coin with probability p_e =
// min(1, C·w_e·(1/s_u + 1/s_v)) over weighted degrees and drawing a walk
// length r and split s. Returns the heads in serial-enumeration order, the
// number of sides with at least one step (what the walker's state buffers
// hold) and the trial accounting part of Stats. cursors holds one
// NeighborCursor per worker index.
func enumerateHeads(g *graph.Graph, cfg Config, cursors []graph.NeighborCursor) ([]headRec, int64, Stats) {
	n := g.NumVertices()
	c := cfg.DownsampleC(n)
	perUnit := float64(cfg.M) / g.TotalWeight()
	var strengths []float64
	if cfg.Downsample {
		strengths = g.Strengths()
	}
	bounds := par.Blocks(n, enumGrain)
	nb := len(bounds) - 1
	forBlocks := func(body func(nc *graph.NeighborCursor, b, lo, hi int)) {
		par.WorkerFor(nb, 1, func(worker, blo, bhi int) {
			for b := blo; b < bhi; b++ {
				body(&cursors[worker], b, bounds[b], bounds[b+1])
			}
		})
	}

	// Regions: Σ M·w_e/vol·p_e expected heads per block, plus slack.
	off := make([]int64, nb+1)
	forBlocks(func(nc *graph.NeighborCursor, b, lo, hi int) {
		off[b] = max(0, int64(withSlack(blockHeads(g, nc, c, perUnit, strengths, lo, hi))))
	})
	off[nb] = par.ExclusiveScan(off[:nb])
	arr := make([]headRec, off[nb])

	type block struct {
		heads, trials, stepping int64
		spill                   []headRec
	}
	out := make([]block, nb)
	forBlocks(func(nc *graph.NeighborCursor, b, lo, hi int) {
		var src rng.Source
		var o block
		region := arr[off[b]:off[b+1]]
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			nbrs := nc.List(u)
			if len(nbrs) == 0 {
				continue
			}
			src.Seed(cfg.Seed, uint64(u))
			for i, v := range nbrs {
				ew := g.EdgeWeight(u, i)
				perArc := perUnit * ew
				ne := int64(perArc)
				if frac := perArc - float64(ne); frac > 0 && src.Bernoulli(frac) {
					ne++
				}
				if ne == 0 {
					continue
				}
				pe := 1.0
				if cfg.Downsample {
					pe = ProbW(c, ew, strengths[u], strengths[v])
				}
				fixed := hashtable.ToFixed(1 / pe)
				for k := int64(0); k < ne; k++ {
					o.trials++
					if pe < 1 && !src.Bernoulli(pe) {
						continue
					}
					r := 1 + src.Intn(cfg.T)
					s := src.Intn(r)
					h := headRec{fixed: fixed, e0: u, e1: v, s0: uint16(s), s1: uint16(r - 1 - s)}
					o.stepping += int64(min(s, 1) + min(r-1-s, 1))
					if o.heads < int64(len(region)) {
						region[o.heads] = h
					} else {
						o.spill = append(o.spill, h)
					}
					o.heads++
				}
			}
		}
		out[b] = o
	})

	// Global indices: block b's heads start at fin[b].
	var stats Stats
	var stepping int64
	fin := make([]int64, nb+1)
	heads := arr
	for b, o := range out {
		stats.Trials += o.trials
		stepping += o.stepping
		fin[b+1] = fin[b] + o.heads
		if o.spill != nil {
			heads = nil // a region overflowed: the blocks no longer pack in place
		}
	}
	stats.Heads = fin[nb]
	if heads == nil {
		heads = make([]headRec, stats.Heads)
	}
	// Pack in block order: without spills every block moves left, never over
	// a later block's unread records.
	for b, o := range out {
		dst := heads[fin[b]:fin[b+1]]
		copy(dst[copy(dst, arr[off[b]:off[b+1]]):], o.spill)
	}
	return heads[:stats.Heads], stepping, stats
}

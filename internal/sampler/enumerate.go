package sampler

import (
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// Stage 1 of the wave pipeline: parallel head enumeration.
//
// The serial enumeration this replaces walked vertices in order, drawing
// each vertex's trial coins from a stream seeded (cfg.Seed, u). Those
// streams make the draw sequence of a vertex independent of every other
// vertex, so the enumeration parallelizes with the standard two-pass shape:
// a counting pass runs each vertex block's draws to find per-block head
// counts, par.ExclusiveScan assigns each block a stable output offset, and
// a fill pass re-runs the identical draws writing head records at their
// final indices. Head i of the output is exactly head i of the serial loop
// — same arc, same split, same weight — for every block geometry and worker
// count, which is what keeps the pipelined sampler's trial distribution
// identical to Sample's and its output deterministic.

// enumGrain is the minimum vertex count per enumeration block (matches the
// per-vertex grain Sample uses; degree skew is absorbed by ForBlocks
// handing out ~4 blocks per worker).
const enumGrain = 32

// enumerateHeads generates every walk head of the pass: for each arc
// (u, v), n_e = ⌊M·w_e/vol⌋ + Bernoulli({M·w_e/vol}) trials — the weighted
// per-arc budget the serial Sample path draws (w_e = 1 and vol = m for
// unweighted graphs, so the unweighted stream is unchanged bit for bit) —
// each surviving the downsampling coin with probability p_e =
// min(1, C·w_e·(1/s_u + 1/s_v)) over weighted degrees and drawing a walk
// length r and split s. Returns the heads in serial-enumeration order plus
// the trial accounting part of Stats.
func enumerateHeads(g *graph.Graph, cfg Config) ([]headRec, Stats) {
	n := g.NumVertices()
	c := cfg.DownsampleC(n)
	perUnit := float64(cfg.M) / g.TotalWeight()
	var strengths []float64
	if cfg.Downsample {
		strengths = g.Strengths()
	}

	// forVertex runs one vertex's full draw sequence, calling emit for every
	// head. Both passes route through it so their streams cannot drift.
	forVertex := func(src *rng.Source, u uint32, trials *int64, emit func(v uint32, r, s int, fixed uint64)) {
		du := g.Degree(u)
		if du == 0 {
			return
		}
		src.Seed(cfg.Seed, uint64(u))
		for i := 0; i < du; i++ {
			v := g.Neighbor(u, i)
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
				*trials++
				if pe < 1 && !src.Bernoulli(pe) {
					continue
				}
				r := 1 + src.Intn(cfg.T)
				s := src.Intn(r)
				emit(v, r, s, fixed)
			}
		}
	}

	bounds := par.Blocks(n, enumGrain)
	nb := len(bounds) - 1
	counts := make([]int64, nb)
	trials := make([]int64, nb)

	// Pass 1: count heads per block (the r and s draws keep the stream
	// aligned with the fill pass; their values are discarded).
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var src rng.Source
		var nHeads int64
		for ui := lo; ui < hi; ui++ {
			forVertex(&src, uint32(ui), &trials[b], func(uint32, int, int, uint64) {
				nHeads++
			})
		}
		counts[b] = nHeads
	})

	var stats Stats
	for _, t := range trials {
		stats.Trials += t
	}
	total := par.ExclusiveScan(counts)
	stats.Heads = total
	heads := make([]headRec, total)

	// Pass 2: re-run the identical draws, writing records at the stable
	// indices the scan assigned.
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var src rng.Source
		var discard int64
		w := counts[b]
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			forVertex(&src, u, &discard, func(v uint32, r, s int, fixed uint64) {
				heads[w] = headRec{fixed: fixed, e0: u, e1: v, s0: uint16(s), s1: uint16(r - 1 - s)}
				w++
			})
		}
	})
	return heads, stats
}

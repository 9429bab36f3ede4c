// Package sampler implements LightNE's sparsifier sampling: PathSampling
// (paper Algorithm 1) and the downsampled per-edge variant (Algorithm 2)
// with the degree-based downsampling probability
//
//	p_e = min(1, C·(1/d_u + 1/d_v)),   C = log n by default,
//
// which Theorem 3.2 (Lovász) justifies as an effective-resistance upper
// bound; Theorem 3.1 makes the reweighted samples (weight 1/p_e) an unbiased
// Laplacian estimator. Every pass — the two full ones, per-arc (Sample) and
// batched (SampleBatched), and the incremental one over a list of arcs
// (SampleArcs) — holds one pair per sample, and Group groups the pairs by
// sorting (hashtable.GroupSymmetricCSR), with no hash table.
//
// The sampler maps over directed arcs grouped by source vertex, exactly the
// cache-friendly per-edge schedule of Algorithm 2: each arc e draws
// n_e = ⌊M/m⌋ + Bernoulli({M/m}) trials so that E[Σ n_e] = M without ever
// needing random access to a uniformly sampled edge (which compressed
// graphs cannot provide cheaply). Per-vertex RNG streams make the output
// distribution-identical and deterministic under any parallel schedule.
package sampler

import (
	"fmt"
	"math"
	"sync/atomic"

	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// atomicAdd is a tiny alias keeping the hot loop readable.
func atomicAdd(p *int64, v int64) { atomic.AddInt64(p, v) }

// Config controls a sampling pass.
type Config struct {
	// T is the context window size (random-walk length bound). Samples draw
	// r uniformly from [1, T].
	T int
	// M is the target number of PathSampling trials (the paper's M).
	M int64
	// Downsample enables Algorithm 2's degree-based edge downsampling.
	Downsample bool
	// C is the downsampling constant; <= 0 selects log(n) (the paper's
	// choice). Ignored when Downsample is false.
	C float64
	// Seed makes runs reproducible.
	Seed uint64
	// Shards selects nothing: every pass groups its samples by sorting, and
	// the one table (NewSink) has no shards. Check still bounds it: more
	// than maxShards (1 024) is an error. It goes with the other
	// implementation selectors (ROADMAP item 15).
	Shards int
}

// maxShards is the largest Config.Shards that Check accepts.
const maxShards = 1024

// Check validates the fields every sampling pass reads: a positive T and at
// most maxShards shards. Sample, SampleBatched and SampleArcs run it.
func (cfg Config) Check() error {
	if cfg.T <= 0 {
		return fmt.Errorf("sampler: T must be positive, got %d", cfg.T)
	}
	if cfg.Shards > maxShards {
		return fmt.Errorf("sampler: Shards must be at most %d, got %d", maxShards, cfg.Shards)
	}
	return nil
}

// DownsampleC resolves the effective downsampling constant on an n-vertex
// graph: 0 when Downsample is off, else C, else the paper's log n floored
// at 1.
func (cfg Config) DownsampleC(n int) float64 {
	switch {
	case !cfg.Downsample:
		return 0
	case cfg.C > 0:
		return cfg.C
	}
	return math.Max(1, math.Log(float64(n)))
}

// Stats reports what a sampling pass actually did. No pass builds a table,
// so the table fields describe the grouping arrays instead (Group):
// TableBytes is the grouped CSR and PeakTableBytes adds the upper triangle
// it was mirrored from and the bucket scatter the pairs were sorted in.
type Stats struct {
	Trials          int64 // Σ_e n_e, the realized sample count M̂
	Heads           int64 // trials that passed the downsampling coin
	DistinctEntries int   // distinct (u',v') keys in the aggregate
	TableBytes      int64 // grouped CSR footprint
	PeakTableBytes  int64 // grouping high-water mark
}

// PathSample runs Algorithm 1: given arc (u, v) and walk length r, it splits
// r-1 remaining steps uniformly between the two endpoints and returns the
// walk's endpoints.
func PathSample(g *graph.Graph, u, v uint32, r int, src *rng.Source) (uint32, uint32) {
	s := src.Intn(r) // uniform in [0, r-1]
	uEnd := g.Walk(u, s, src)
	vEnd := g.Walk(v, r-1-s, src)
	return uEnd, vEnd
}

// Prob returns the downsampling probability p_e for an unweighted arc
// between vertices of the given degrees.
func Prob(c float64, du, dv int) float64 {
	return ProbW(c, 1, float64(du), float64(dv))
}

// ProbW returns the weighted downsampling probability
// p_e = min(1, C·A_uv·(1/d_u + 1/d_v)) with weighted degrees (paper §3.2).
func ProbW(c, w, su, sv float64) float64 {
	p := c * w * (1/su + 1/sv)
	if p > 1 {
		return 1
	}
	return p
}

// Sample runs the downsampled per-edge PathSampling pass over g and returns
// its aggregate grouped into CSR arrays over g's vertices, as a Sink whose
// DrainCSR hands them over, plus statistics. The aggregate maps ordered
// pairs (u', v') to accumulated importance weights and is exactly
// symmetric: every sample counts in both orientations. Each worker appends
// one pair per head to its own buffer (pairSegs), and the buffers group
// where they lie (Group).
func Sample(g *graph.Graph, cfg Config) (Sink, Stats, error) {
	n := g.NumVertices()
	if err := cfg.Check(); err != nil {
		return nil, Stats{}, err
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if n == 0 || g.NumEdges() == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	keys, fixed, stats := samplePairs(g, cfg)
	return Group(keys, fixed, n, &stats), stats, nil
}

// samplePairs draws Sample's heads and returns their one-orientation pairs
// as segments, with the trial accounting part of Stats.
func samplePairs(g *graph.Graph, cfg Config) (keys, fixed [][]uint64, stats Stats) {
	n := g.NumVertices()
	c := cfg.DownsampleC(n)

	// Per-arc trial budget. Unweighted: M/arcs each. Weighted: the paper's
	// PathSampling picks edges proportionally to weight, so arc e draws an
	// expected M·w_e/vol(G) trials.
	perUnit := float64(cfg.M) / g.TotalWeight()
	strengths := g.Strengths()

	bufs := make([]pairSegs, par.Workers())
	var trials, heads int64
	par.WorkerFor(n, 32, func(w, lo, hi int) {
		var src rng.Source
		var localTrials, localHeads int64
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			du := g.Degree(u)
			if du == 0 {
				continue
			}
			src.Seed(cfg.Seed, uint64(u))
			for i := 0; i < du; i++ {
				v := g.Neighbor(u, i)
				ew := g.EdgeWeight(u, i)
				ne := trialCount(perUnit*ew, &src)
				if ne == 0 {
					continue
				}
				pe := 1.0
				if cfg.Downsample {
					pe = ProbW(c, ew, strengths[u], strengths[v])
				}
				localTrials += ne
				localHeads += bufs[w].draw(g, u, v, ne, pe, cfg.T, &src)
			}
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	keys, fixed = segments(bufs)
	return keys, fixed, Stats{Trials: trials, Heads: heads}
}

// SampleArcs runs downsampled PathSampling for the given arcs only, drawing
// perArc expected trials per arc, and returns one pair per head as segments,
// as Sample's pass holds them before Group. Walks run on g (which must
// already contain the arcs). This is the incremental pass of the dynamic
// embedder: when a batch of edges arrives, only the new arcs are sampled at
// the same per-arc rate as the initial pass, and their pairs join the ones
// kept from earlier batches.
//
// Of cfg, T, Downsample, C and Seed are read (C resolved on g); M belongs to
// the caller, who chose perArc. Arc i draws from stream (Seed, i), so the
// seed should differ per batch. Of the Stats, Trials and Heads are set.
func SampleArcs(g *graph.Graph, arcs []graph.Edge, perArc float64, cfg Config) (keys, fixed [][]uint64, stats Stats, err error) {
	if err := cfg.Check(); err != nil {
		return nil, nil, Stats{}, err
	}
	if !(perArc >= 0) || math.IsInf(perArc, 1) {
		return nil, nil, Stats{}, fmt.Errorf("sampler: perArc must be finite and non-negative, got %g", perArc)
	}
	c := cfg.DownsampleC(g.NumVertices())
	bufs := make([]pairSegs, par.Workers())
	var trials, heads int64
	par.WorkerFor(len(arcs), 16, func(w, lo, hi int) {
		var src rng.Source
		var localTrials, localHeads int64
		for i := lo; i < hi; i++ {
			src.Seed(cfg.Seed, uint64(i))
			u, v := arcs[i].U, arcs[i].V
			du, dv := g.Degree(u), g.Degree(v)
			if du == 0 || dv == 0 {
				continue
			}
			ne := trialCount(perArc, &src)
			if ne == 0 {
				continue
			}
			pe := 1.0
			if c > 0 {
				pe = Prob(c, du, dv)
			}
			localTrials += ne
			localHeads += bufs[w].draw(g, u, v, ne, pe, cfg.T, &src)
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	keys, fixed = segments(bufs)
	return keys, fixed, Stats{Trials: trials, Heads: heads}, nil
}

// trialCount draws an arc's trial count n_e: ⌊perArc⌋, plus one with
// probability {perArc}.
func trialCount(perArc float64, src *rng.Source) int64 {
	ne := int64(perArc)
	if frac := perArc - float64(ne); frac > 0 && src.Bernoulli(frac) {
		ne++
	}
	return ne
}

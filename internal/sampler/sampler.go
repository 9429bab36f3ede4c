// Package sampler implements LightNE's sparsifier sampling: PathSampling
// (paper Algorithm 1) and the downsampled per-edge variant (Algorithm 2)
// with the degree-based downsampling probability
//
//	p_e = min(1, C·(1/d_u + 1/d_v)),   C = log n by default,
//
// which Theorem 3.2 (Lovász) justifies as an effective-resistance upper
// bound; Theorem 3.1 makes the reweighted samples (weight 1/p_e) an unbiased
// Laplacian estimator. Samples are aggregated in the concurrent hash table
// from internal/hashtable.
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
	"lightne/internal/hashtable"
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
	// TableSizeHint presizes the hash table; <= 0 derives an estimate.
	TableSizeHint int
	// Shards splits the aggregation table across a power of two of
	// sub-tables routed by high hash bits (see aggregate.NewShardedTable);
	// <= 1 keeps the single shared table. The drained CSR is bit-identical
	// either way.
	Shards int
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

// Stats reports what a sampling pass actually did.
type Stats struct {
	Trials          int64 // Σ_e n_e, the realized sample count M̂
	Heads           int64 // trials that passed the downsampling coin
	DistinctEntries int   // distinct (u',v') keys in the table
	TableBytes      int64 // hash table footprint after the pass
	PeakTableBytes  int64 // footprint high-water mark, incl. grow transients
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
// the aggregation sink plus statistics. The sink maps ordered pairs
// (u', v') to accumulated importance weights; every sample is inserted in
// both orientations so the aggregate is exactly symmetric.
func Sample(g *graph.Graph, cfg Config) (Sink, Stats, error) {
	n := g.NumVertices()
	arcs := g.NumEdges()
	if cfg.T <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: T must be positive, got %d", cfg.T)
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if n == 0 || arcs == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	c := cfg.DownsampleC(n)

	// Per-arc trial budget. Unweighted: M/arcs each. Weighted: the paper's
	// PathSampling picks edges proportionally to weight, so arc e draws an
	// expected M·w_e/vol(G) trials.
	totalWeight := g.TotalWeight()
	perUnit := float64(cfg.M) / totalWeight
	strengths := g.Strengths()

	// Presize the table: expected heads ≈ M·E[p_e]; each head inserts two
	// oriented keys. Without downsampling every trial is a head.
	hint := cfg.TableSizeHint
	if hint <= 0 {
		headsEst := float64(cfg.M)
		if cfg.Downsample {
			// Σ_arcs p_e ≤ Σ_arcs C(1/du+1/dv) = 2nC, so the heads fraction
			// is at most 2nC/arcs.
			if cap := 2 * float64(n) * c / float64(arcs); cap < 1 {
				headsEst *= cap
			}
		}
		hint = int(2*headsEst) + 1024
	}
	table := NewSink(hint, cfg.Shards)

	var trials, heads int64
	par.ForRange(n, 32, func(lo, hi int) {
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
					localTrials++
					if pe < 1 && !src.Bernoulli(pe) {
						continue
					}
					localHeads++
					r := 1 + src.Intn(cfg.T)
					ue, ve := PathSample(g, u, v, r, &src)
					table.AddFixed(hashtable.Key(ue, ve), fixed)
					table.AddFixed(hashtable.Key(ve, ue), fixed)
				}
			}
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})

	return table, Stats{
		Trials:          trials,
		Heads:           heads,
		DistinctEntries: table.Len(),
		TableBytes:      table.MemoryBytes(),
		PeakTableBytes:  table.PeakMemoryBytes(),
	}, nil
}

// SampleArcsInto runs downsampled PathSampling for the given arcs only,
// drawing perArc expected trials per arc and accumulating into an existing
// table. Walks run on g (which must already contain the arcs). This is the
// incremental path used by the dynamic embedder: when a batch of edges
// arrives, only the new arcs are sampled at the same per-arc rate as the
// initial pass.
//
// Of cfg, T, Downsample, C and Seed are read (C resolved on g); M, Shards
// and TableSizeHint belong to the table's owner. The seed should differ per
// batch.
func SampleArcsInto(g *graph.Graph, table Sink, arcs []graph.Edge, perArc float64, cfg Config) (Stats, error) {
	t, c, seed := cfg.T, cfg.DownsampleC(g.NumVertices()), cfg.Seed
	if t <= 0 {
		return Stats{}, fmt.Errorf("sampler: T must be positive, got %d", t)
	}
	if perArc < 0 {
		return Stats{}, fmt.Errorf("sampler: perArc must be non-negative, got %g", perArc)
	}
	base := int64(perArc)
	frac := perArc - float64(base)
	var trials, heads int64
	par.ForRange(len(arcs), 16, func(lo, hi int) {
		var src rng.Source
		var localTrials, localHeads int64
		for i := lo; i < hi; i++ {
			src.Seed(seed, uint64(i))
			u, v := arcs[i].U, arcs[i].V
			du, dv := g.Degree(u), g.Degree(v)
			if du == 0 || dv == 0 {
				continue
			}
			ne := base
			if frac > 0 && src.Bernoulli(frac) {
				ne++
			}
			if ne == 0 {
				continue
			}
			pe := 1.0
			if c > 0 {
				pe = Prob(c, du, dv)
			}
			fixed := hashtable.ToFixed(1 / pe)
			for k := int64(0); k < ne; k++ {
				localTrials++
				if pe < 1 && !src.Bernoulli(pe) {
					continue
				}
				localHeads++
				r := 1 + src.Intn(t)
				ue, ve := PathSample(g, u, v, r, &src)
				table.AddFixed(hashtable.Key(ue, ve), fixed)
				table.AddFixed(hashtable.Key(ve, ue), fixed)
			}
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	return Stats{
		Trials:          trials,
		Heads:           heads,
		DistinctEntries: table.Len(),
		TableBytes:      table.MemoryBytes(),
		PeakTableBytes:  table.PeakMemoryBytes(),
	}, nil
}

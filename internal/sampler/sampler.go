// Package sampler implements LightNE's sparsifier sampling: PathSampling
// (paper Algorithm 1) and the downsampled per-edge variant (Algorithm 2)
// with the degree-based downsampling probability
//
//	p_e = min(1, C·(1/d_u + 1/d_v)),   C = log n by default,
//
// which Theorem 3.2 (Lovász) justifies as an effective-resistance upper
// bound; Theorem 3.1 makes the reweighted samples (weight 1/p_e) an unbiased
// Laplacian estimator. The two full passes, per-arc (Sample) and batched
// (SampleBatched), hold one pair per sample and group them by sorting
// (hashtable.GroupSymmetricCSR); the incremental pass (SampleArcsInto)
// aggregates into the concurrent hash table from internal/hashtable.
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
	// Shards splits an incremental pass's aggregation table (NewSink, which
	// the table's owner calls) across a power of two of shards routed by
	// high hash bits (hashtable.New); <= 1 keeps one shard, and more than
	// hashtable.MaxShards (1 024) is an error, from every pass. The drained
	// CSR is bit-identical either way. Sample and SampleBatched group their
	// samples by sorting, with no table, and only check it.
	Shards int
}

// Check validates the fields every sampling pass reads: a positive T and at
// most hashtable.MaxShards shards. Sample, SampleBatched and SampleArcsInto
// run it; a caller that sizes a table from Shards before sampling runs it
// first.
func (cfg Config) Check() error {
	if cfg.T <= 0 {
		return fmt.Errorf("sampler: T must be positive, got %d", cfg.T)
	}
	if cfg.Shards > hashtable.MaxShards {
		return fmt.Errorf("sampler: Shards must be at most %d, got %d", hashtable.MaxShards, cfg.Shards)
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

// Stats reports what a sampling pass actually did. Sample and SampleBatched
// build no table, so for them the table fields describe the grouping arrays
// instead (group): TableBytes is the grouped CSR and PeakTableBytes
// adds the upper triangle it was mirrored from and the bucket scatter the
// pairs were sorted in.
type Stats struct {
	Trials          int64 // Σ_e n_e, the realized sample count M̂
	Heads           int64 // trials that passed the downsampling coin
	DistinctEntries int   // distinct (u',v') keys in the aggregate
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
// its aggregate grouped into CSR arrays over g's vertices, as a Sink whose
// DrainCSR hands them over, plus statistics. The aggregate maps ordered
// pairs (u', v') to accumulated importance weights and is exactly
// symmetric: every sample counts in both orientations. Each worker appends
// one pair per head to its own buffer (pairSegs), and the buffers group
// where they lie (group).
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
	return group(keys, fixed, n, &stats), stats, nil
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
		buf := &bufs[w]
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
					buf.add(ue, ve, fixed)
				}
			}
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	for _, b := range bufs {
		keys, fixed = append(keys, b.keys...), append(fixed, b.fixed...)
	}
	return keys, fixed, Stats{Trials: trials, Heads: heads}
}

// SampleArcsInto runs downsampled PathSampling for the given arcs only,
// drawing perArc expected trials per arc and accumulating into an existing
// table. Walks run on g (which must already contain the arcs). This is the
// incremental path used by the dynamic embedder: when a batch of edges
// arrives, only the new arcs are sampled at the same per-arc rate as the
// initial pass.
//
// Of cfg, T, Downsample, C and Seed are read (C resolved on g); M and
// Shards belong to the table's owner. The seed should differ per
// batch.
func SampleArcsInto(g *graph.Graph, table *hashtable.Table, arcs []graph.Edge, perArc float64, cfg Config) (Stats, error) {
	t, c, seed := cfg.T, cfg.DownsampleC(g.NumVertices()), cfg.Seed
	if err := cfg.Check(); err != nil {
		return Stats{}, err
	}
	if perArc < 0 {
		return Stats{}, fmt.Errorf("sampler: perArc must be non-negative, got %g", perArc)
	}
	base := int64(perArc)
	frac := perArc - float64(base)
	var trials, heads int64
	forBuffered(table, len(arcs), 16, func(lo, hi int, buf *pairBuf) {
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
				buf.add(ue, ve, fixed)
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

package sampler

import (
	"fmt"
	"sort"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// Uniform-arc sampling strategies. The paper's §4.2 describes the
// "natural idea" of repeatedly calling PathSampling on a uniformly random
// edge, and the two straightforward ways to draw that edge:
//
//   - store all edges in a flat array for O(1) access ("would require a
//     prohibitive amount of memory for our largest networks") —
//     ArrayArcSampler;
//   - binary-search the prefix sums of vertex degrees ("extra O(log n)
//     time for each sample") — SearchArcSampler.
//
// LightNE instead reorganizes the process per edge (Algorithm 2, the
// Sample function). These samplers implement the rejected designs so the
// trade-off is measurable (see the benchmarks) and so the per-edge
// schedule can be validated against the textbook process (SampleUniform
// produces the same distribution).

// ArcSampler draws uniformly random directed arcs.
type ArcSampler interface {
	// Arc returns a uniformly random directed arc.
	Arc(src *rng.Source) (u, v uint32)
	// MemoryBytes reports the sampler's extra memory.
	MemoryBytes() int64
}

// ArrayArcSampler materializes every arc: O(1) draws, O(m) extra memory.
type ArrayArcSampler struct {
	us, vs []uint32
}

// NewArrayArcSampler builds the flat arc array.
func NewArrayArcSampler(g *graph.Graph) *ArrayArcSampler {
	m := g.NumEdges()
	s := &ArrayArcSampler{
		us: make([]uint32, 0, m),
		vs: make([]uint32, 0, m),
	}
	for u := 0; u < g.NumVertices(); u++ {
		d := g.Degree(uint32(u))
		for i := 0; i < d; i++ {
			s.us = append(s.us, uint32(u))
			s.vs = append(s.vs, g.Neighbor(uint32(u), i))
		}
	}
	return s
}

// Arc draws in O(1).
func (s *ArrayArcSampler) Arc(src *rng.Source) (uint32, uint32) {
	i := src.Intn(len(s.us))
	return s.us[i], s.vs[i]
}

// MemoryBytes is 8 bytes per arc.
func (s *ArrayArcSampler) MemoryBytes() int64 { return int64(len(s.us)) * 8 }

// SearchArcSampler binary-searches the degree prefix sums: O(log n) draws,
// no extra memory beyond the graph's own offsets.
type SearchArcSampler struct {
	g *graph.Graph
}

// NewSearchArcSampler wraps a graph.
func NewSearchArcSampler(g *graph.Graph) *SearchArcSampler {
	return &SearchArcSampler{g: g}
}

// Arc draws by picking a uniform arc index and locating its source vertex
// with binary search over the CSR offsets.
func (s *SearchArcSampler) Arc(src *rng.Source) (uint32, uint32) {
	g := s.g
	k := int64(src.Intn(int(g.NumEdges())))
	// Find u with offsets[u] <= k < offsets[u+1].
	n := g.NumVertices()
	u := sort.Search(n, func(i int) bool { return g.OffsetOf(i+1) > k }) // first i whose range contains k
	return uint32(u), g.Neighbor(uint32(u), int(k-g.OffsetOf(u)))
}

// MemoryBytes is zero: the graph's CSR offsets are reused.
func (s *SearchArcSampler) MemoryBytes() int64 { return 0 }

// SampleUniform runs the textbook NetSMF process — each trial draws a
// uniformly random arc via the provided strategy, then PathSamples — with
// LightNE's downsampling applied per trial. It produces aggregates from the
// same distribution as Sample (which the tests verify), at the cost the
// paper describes. Weighted graphs are rejected: uniform-arc sampling is
// only equivalent for unit weights.
func SampleUniform(g *graph.Graph, cfg Config, arcs ArcSampler) (Sink, Stats, error) {
	if cfg.T <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: T must be positive, got %d", cfg.T)
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if g.NumEdges() == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	if g.Weighted() {
		return nil, Stats{}, fmt.Errorf("sampler: uniform-arc sampling requires an unweighted graph")
	}
	c := cfg.DownsampleC(g.NumVertices())
	hint := cfg.TableSizeHint
	if hint <= 0 {
		hint = int(2*cfg.M) + 1024
	}
	table := NewSink(hint, cfg.Shards)
	var trials, heads int64
	par.ForRange(int(cfg.M), 1<<12, func(lo, hi int) {
		var src rng.Source
		src.Seed(cfg.Seed^0xedce, uint64(lo))
		var localTrials, localHeads int64
		for i := lo; i < hi; i++ {
			u, v := arcs.Arc(&src)
			localTrials++
			pe := 1.0
			if cfg.Downsample {
				pe = Prob(c, g.Degree(u), g.Degree(v))
			}
			if pe < 1 && !src.Bernoulli(pe) {
				continue
			}
			localHeads++
			r := 1 + src.Intn(cfg.T)
			ue, ve := PathSample(g, u, v, r, &src)
			fixed := hashtable.ToFixed(1 / pe)
			table.AddFixed(hashtable.Key(ue, ve), fixed)
			table.AddFixed(hashtable.Key(ve, ue), fixed)
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

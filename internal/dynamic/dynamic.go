// Package dynamic implements LightNE in a streaming/dynamic setting — the
// extension the paper names as future work (§6: "we also would like to
// study large-scale network embedding in a streaming or dynamic setting").
//
// The key observation is that LightNE's state between samples and embedding
// is just the samples, and the sparsifier is a sum of independent per-sample
// terms: when a batch of edges arrives, it suffices to (1) merge the batch
// into the graph's CSR, (2) run the downsampled PathSampling for the *new*
// arcs only, at the same per-arc rate as the initial pass, keeping one
// 16-byte pair per sample beside the earlier ones, and (3) group the kept
// pairs the way the full passes do (sampler.Group) and re-run the cheap
// randomized SVD + propagation on them. Sampling cost per batch is
// proportional to the batch, not the graph; the merge copies the CSR once.
//
// The resulting estimator is slightly stale — samples drawn in earlier
// epochs used the then-current degrees and walk structure — so the embedder
// tracks a staleness ratio and callers refresh (full resample) when it
// exceeds their tolerance. This matches the paper's motivating deployments
// (Alibaba/LinkedIn periodic re-embedding, §1): cheap incremental updates
// between periodic full rebuilds.
package dynamic

import (
	"fmt"
	"slices"

	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/sampler"
)

// Embedder maintains a LightNE embedding over a growing graph.
type Embedder struct {
	cfg core.Config
	g   *graph.Graph
	// simple is whether g is what graph.FromEdges builds from its own edges
	// (graph.Simple), so that a batch merges into its CSR (WithEdges). Only
	// an initial graph can fail it; the first batch then rebuilds.
	simple   bool
	numEdges int // undirected edges of g, counted as u < v
	// keys and fixed are the kept samples, one pair per head
	// (hashtable.SymmetricPair), as segments of exactly their length.
	keys, fixed [][]uint64
	perArc      float64 // expected trials per directed arc, fixed at New
	trials      int64   // total realized trials in the kept samples
	heads       int64   // kept pairs
	batches     int
	// staleArcs counts arcs added since the last full (re)sample; their
	// siblings' samples were drawn under an older graph snapshot.
	staleArcs int64
}

// New builds an embedder over the initial graph, performing the full
// LightNE sampling pass.
func New(initial *graph.Graph, cfg core.Config) (*Embedder, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("dynamic: dimension must be positive")
	}
	if err := cfg.Sampler(initial).Check(); err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	if initial.NumEdges() == 0 {
		// perArc would be M/0 = +Inf, which no pass can draw.
		return nil, fmt.Errorf("dynamic: graph has no edges")
	}
	if initial.Weighted() {
		// The incremental path rebuilds the graph from an unweighted arc
		// list and samples with unit weights; accepting a weighted graph
		// would silently drop its weights.
		return nil, fmt.Errorf("dynamic: weighted graphs are not supported; use core.Embed and full re-runs")
	}
	e := &Embedder{
		cfg:    cfg,
		g:      initial,
		simple: initial.Simple(),
		perArc: float64(cfg.Sampler(initial).M) / float64(initial.NumEdges()),
	}
	if err := e.resample(); err != nil {
		return nil, err
	}
	return e, nil
}

// collectArcs lists each undirected edge once (u < v).
func collectArcs(g *graph.Graph) []graph.Edge {
	var arcs []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u), nil) {
			if uint32(u) < v {
				arcs = append(arcs, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	return arcs
}

// sampleArcs samples arcs of the current graph at the fixed per-arc rate, on
// a seed derived from the batch number, and keeps their pairs. A partly
// filled segment is copied to its length, so the kept state is 16 bytes per
// head however small the batches.
func (e *Embedder) sampleArcs(arcs []graph.Edge) error {
	scfg := e.cfg.Sampler(e.g)
	scfg.Seed += uint64(e.batches) * 1000
	keys, fixed, stats, err := sampler.SampleArcs(e.g, arcs, 2*e.perArc, scfg)
	if err != nil {
		return err
	}
	for i, k := range keys {
		if cap(k) > len(k) {
			keys[i], fixed[i] = append(make([]uint64, 0, len(k)), k...), append(make([]uint64, 0, len(k)), fixed[i]...)
		}
	}
	e.keys, e.fixed = append(e.keys, keys...), append(e.fixed, fixed...)
	e.trials += stats.Trials
	e.heads += stats.Heads
	return nil
}

// resample draws the samples from scratch on the current graph's edges, in
// ascending (u, v) order.
func (e *Embedder) resample() error {
	arcs := collectArcs(e.g)
	e.keys, e.fixed, e.trials, e.heads, e.staleArcs, e.numEdges = nil, nil, 0, 0, 0, len(arcs)
	return e.sampleArcs(arcs)
}

// NumVertices returns the current vertex count.
func (e *Embedder) NumVertices() int { return e.g.NumVertices() }

// NumEdges returns the current undirected edge count.
func (e *Embedder) NumEdges() int { return e.numEdges }

// Staleness reports the fraction of the current edge set added since the
// last full (re)sample — a proxy for how much of the accumulated sample
// mass was drawn under an outdated graph. 0 immediately after New or
// Refresh; callers refresh when it exceeds their drift tolerance.
func (e *Embedder) Staleness() float64 {
	if e.numEdges == 0 {
		return 0
	}
	return float64(e.staleArcs) / float64(e.numEdges)
}

// AddEdges grows the graph by a batch of undirected edges (self loops and
// duplicates are ignored) and samples only the new arcs. n may grow: vertex
// IDs beyond the current count extend the graph. The new edges are merged
// into the current CSR (graph.WithEdges), so the rebuild costs one copy of
// it, not a regrouping of every arc.
func (e *Embedder) AddEdges(batch []graph.Edge) error {
	n := e.g.NumVertices()
	for _, a := range batch {
		n = max(n, int(a.U)+1, int(a.V)+1)
	}
	fresh := e.freshArcs(batch)
	if len(fresh) == 0 {
		return nil
	}
	var g *graph.Graph
	var err error
	if e.simple {
		g, err = e.g.WithEdges(n, fresh)
	} else {
		g, err = graph.FromEdges(n, append(collectArcs(e.g), fresh...), graph.DefaultOptions())
	}
	if err != nil {
		return err
	}
	e.g, e.simple = g, true
	e.numEdges += len(fresh)
	e.staleArcs += int64(len(fresh))
	e.batches++
	return e.sampleArcs(fresh)
}

// freshArcs returns the batch's edges that are neither self loops nor in the
// current graph, once each, as u < v in ascending (u, v) order: the batch's
// packed keys sorted and compacted, each looked up by binary search in the
// current graph's sorted adjacency of u.
func (e *Embedder) freshArcs(batch []graph.Edge) []graph.Edge {
	keys := make([]uint64, 0, len(batch))
	for _, a := range batch {
		if a.U != a.V {
			keys = append(keys, hashtable.Key(min(a.U, a.V), max(a.U, a.V)))
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	fresh := make([]graph.Edge, 0, len(keys))
	for _, k := range keys {
		u, v := hashtable.UnpackKey(k)
		if int(u) < e.g.NumVertices() {
			if _, ok := slices.BinarySearch(e.g.Neighbors(u, nil), v); ok {
				continue
			}
		}
		fresh = append(fresh, graph.Edge{U: u, V: v})
	}
	return fresh
}

// Refresh performs a full resample of the current graph, clearing
// staleness. Cost is proportional to the whole graph, like New.
func (e *Embedder) Refresh() error {
	e.batches++
	return e.resample()
}

// Embed groups the kept samples as the full passes do (sampler.Group) and
// factorizes the sparsifier — core.EmbedTable, the same hand-off core.Embed
// makes, so the embedding is a pure function of the kept samples for every
// worker count and honours every factorizer and propagation setting of the
// config — returning the current embedding. The samples stay kept for the
// next batch.
func (e *Embedder) Embed() (*dense.Matrix, error) {
	res, err := core.EmbedTable(e.g, e.sink(), e.trials, e.cfg)
	if err != nil {
		return nil, err
	}
	return res.Embedding, nil
}

// sink groups the kept samples over the current vertex set.
func (e *Embedder) sink() *sampler.Upper {
	stats := sampler.Stats{Trials: e.trials, Heads: e.heads}
	return sampler.Group(e.keys, e.fixed, e.g.NumVertices(), &stats)
}

// Package dynamic implements LightNE in a streaming/dynamic setting — the
// extension the paper names as future work (§6: "we also would like to
// study large-scale network embedding in a streaming or dynamic setting").
//
// The key observation is that LightNE's state between samples and embedding
// is just the sparsifier hash table, and the table is additive: when a
// batch of edges arrives, it suffices to (1) rebuild the graph, (2) run the
// downsampled PathSampling for the *new* arcs only, at the same per-arc
// rate as the initial pass, and (3) re-run the cheap randomized SVD +
// propagation on the accumulated table. Sampling cost per batch is
// proportional to the batch, not the graph.
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

	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/sampler"
)

// Embedder maintains a LightNE embedding over a growing graph.
type Embedder struct {
	cfg     core.Config
	g       *graph.Graph
	arcs    []graph.Edge // canonical arc list (u < v), current graph
	table   *hashtable.Table
	perArc  float64 // expected trials per directed arc, fixed at New
	trials  int64   // total realized trials in the table
	batches int
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
	if initial.Weighted() {
		// The incremental path rebuilds the graph from an unweighted arc
		// list and samples with unit weights; accepting a weighted graph
		// would silently drop its weights.
		return nil, fmt.Errorf("dynamic: weighted graphs are not supported; use core.Embed and full re-runs")
	}
	e := &Embedder{
		cfg:    cfg,
		g:      initial,
		arcs:   collectArcs(initial),
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

// sampleArcs samples arcs of the current graph into the table at the fixed
// per-arc rate, on a seed derived from the batch number.
func (e *Embedder) sampleArcs(arcs []graph.Edge) (sampler.Stats, error) {
	scfg := e.cfg.Sampler(e.g)
	scfg.Seed += uint64(e.batches) * 1000
	return sampler.SampleArcsInto(e.g, e.table, arcs, 2*e.perArc, scfg)
}

// resample rebuilds the sparsifier table from scratch on the current graph,
// honouring the config's shard count.
func (e *Embedder) resample() error {
	e.table = sampler.NewSink(int(2*e.perArc*float64(len(e.arcs)))+1024, e.cfg.Shards)
	stats, err := e.sampleArcs(e.arcs)
	if err != nil {
		return err
	}
	e.trials = stats.Trials
	e.staleArcs = 0
	return nil
}

// NumVertices returns the current vertex count.
func (e *Embedder) NumVertices() int { return e.g.NumVertices() }

// NumEdges returns the current undirected edge count.
func (e *Embedder) NumEdges() int { return len(e.arcs) }

// Staleness reports the fraction of the current edge set added since the
// last full (re)sample — a proxy for how much of the accumulated sample
// mass was drawn under an outdated graph. 0 immediately after New or
// Refresh; callers refresh when it exceeds their drift tolerance.
func (e *Embedder) Staleness() float64 {
	if len(e.arcs) == 0 {
		return 0
	}
	return float64(e.staleArcs) / float64(len(e.arcs))
}

// AddEdges grows the graph by a batch of undirected edges (self loops and
// duplicates are ignored) and samples only the new arcs. n may grow: vertex
// IDs beyond the current count extend the graph.
func (e *Embedder) AddEdges(batch []graph.Edge) error {
	if len(batch) == 0 {
		return nil
	}
	// Determine the new vertex count and dedup against existing arcs.
	n := e.g.NumVertices()
	for _, a := range batch {
		if int(a.U) >= n {
			n = int(a.U) + 1
		}
		if int(a.V) >= n {
			n = int(a.V) + 1
		}
	}
	existing := make(map[uint64]bool, len(e.arcs))
	for _, a := range e.arcs {
		existing[hashtable.Key(a.U, a.V)] = true
	}
	var fresh []graph.Edge
	for _, a := range batch {
		u, v := a.U, a.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := hashtable.Key(u, v)
		if existing[k] {
			continue
		}
		existing[k] = true
		fresh = append(fresh, graph.Edge{U: u, V: v})
	}
	if len(fresh) == 0 {
		return nil
	}
	e.staleArcs += int64(len(fresh))
	e.arcs = append(e.arcs, fresh...)
	g, err := graph.FromEdges(n, e.arcs, graph.DefaultOptions())
	if err != nil {
		return err
	}
	e.g = g
	e.batches++
	stats, err := e.sampleArcs(fresh)
	if err != nil {
		return err
	}
	e.trials += stats.Trials
	return nil
}

// Refresh performs a full resample of the current graph, clearing
// staleness. Cost is proportional to the whole graph, like New.
func (e *Embedder) Refresh() error {
	e.batches++
	return e.resample()
}

// Embed factorizes the accumulated sparsifier — core.EmbedTable, the same
// hand-off core.Embed makes, so the embedding is a pure function of the
// accumulated samples for every Shards setting and worker count and honours
// every factorizer and propagation setting of the config — returning the
// current embedding. The table stays intact for the next batch.
func (e *Embedder) Embed() (*dense.Matrix, error) {
	res, err := core.EmbedTable(e.g, e.table, e.trials, e.cfg)
	if err != nil {
		return nil, err
	}
	return res.Embedding, nil
}

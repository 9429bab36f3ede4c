package baselines

import (
	"fmt"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// LINEConfig controls the LINE (second-order proximity) baseline.
type LINEConfig struct {
	Dim          int
	Samples      int64   // total edge samples (default 100·m)
	Negatives    int     // K (default 5)
	LearningRate float64 // initial SGD step (default 0.025)
	Seed         uint64
}

// DefaultLINE returns conventional hyper-parameters at dimension d.
func DefaultLINE(d int) LINEConfig {
	return LINEConfig{Dim: d, Negatives: 5, LearningRate: 0.025}
}

// LINE trains a LINE(2nd) embedding by edge-sampling SGD: repeatedly pick a
// random arc (u,v) and apply a skip-gram-with-negatives update treating v
// as u's context. It captures 1-hop structure only — the paper's point
// about LINE-class systems (§1).
func LINE(g *graph.Graph, cfg LINEConfig) (*dense.Matrix, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("baselines: dimension must be positive")
	}
	arcs := g.NumEdges()
	if arcs == 0 {
		return nil, fmt.Errorf("baselines: graph has no edges")
	}
	if g.Weighted() {
		return nil, fmt.Errorf("baselines: LINE samples arcs uniformly and requires an unweighted graph")
	}
	if cfg.Negatives <= 0 {
		cfg.Negatives = 5
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.025
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 50 * arcs
	}
	n := g.NumVertices()
	in := dense.NewMatrix(n, cfg.Dim)
	out := dense.NewMatrix(n, cfg.Dim)
	initEmbedding(in, cfg.Seed)
	nt := newNegTable(g, 1<<20)

	// Arc sampling needs a flat arc list; build source-per-arc once. This is
	// the "prohibitive memory" approach LightNE avoids (§4.2) — acceptable
	// for a baseline at benchmark scale.
	srcOf := make([]uint32, arcs)
	dstOf := make([]uint32, arcs)
	var w int64
	nc := g.NewNeighborCursor()
	for u := 0; u < n; u++ {
		for _, v := range nc.List(uint32(u)) {
			srcOf[w] = uint32(u)
			dstOf[w] = v
			w++
		}
	}

	total := cfg.Samples
	par.ForRange(int(total), 1<<12, func(lo, hi int) {
		var src rng.Source
		src.Seed(cfg.Seed^0x11e2, uint64(lo))
		grad := make([]float64, cfg.Dim)
		for s := lo; s < hi; s++ {
			a := src.Intn(int(arcs))
			lr := cfg.LearningRate * (1 - float64(s)/float64(total))
			if lr < cfg.LearningRate*0.0001 {
				lr = cfg.LearningRate * 0.0001
			}
			sgnsUpdate(in, out, srcOf[a], dstOf[a], cfg.Negatives, lr, nt, &src, grad)
		}
	})
	return in, nil
}

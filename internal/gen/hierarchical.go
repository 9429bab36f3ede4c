package gen

import (
	"fmt"
	"math"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// HierarchicalSBMConfig parameterizes a two-level block model: vertices
// belong to micro-communities, micro-communities group into
// super-communities, and the classification labels are the
// super-communities. Direct edges are dominated by the micro level, so
// 1-hop methods see micro structure while the label signal lives at 2+
// hops — the structure of real academic/social graphs (e.g. OAG, where
// field-of-study labels span many venues), and the regime where multi-hop
// matrix methods (NetMF/NetSMF/LightNE) genuinely outperform 1-hop
// factorizations.
type HierarchicalSBMConfig struct {
	N     int
	Super int // number of super-communities (= label classes)
	Micro int // micro-communities per super-community
	// DIn is the expected within-micro degree (dense local signal).
	DIn float64
	// DMid is the expected degree toward *other* micros in the same super
	// (the multi-hop label signal).
	DMid float64
	// DOut is the expected background degree (noise).
	DOut float64
	// OverlapProb gives a vertex a second super-community label (and edges
	// into one of its micros), producing the multi-label structure of the
	// paper's benchmarks.
	OverlapProb float64
	// DegreeSkew, when positive, draws endpoints proportionally to
	// power-law vertex activities (degree-corrected model).
	DegreeSkew float64
	Seed       uint64
}

// HierarchicalSBM samples the model, returning the graph and super-level
// labels.
func HierarchicalSBM(cfg HierarchicalSBMConfig) (*graph.Graph, *Labels, error) {
	if cfg.N <= 0 || cfg.Super <= 0 || cfg.Micro <= 0 {
		return nil, nil, fmt.Errorf("gen: HierarchicalSBM needs positive N, Super, Micro")
	}
	if cfg.DIn < 0 || cfg.DMid < 0 || cfg.DOut < 0 {
		return nil, nil, fmt.Errorf("gen: HierarchicalSBM degrees must be non-negative")
	}
	src := rng.New(cfg.Seed, 9)
	totalMicros := cfg.Super * cfg.Micro

	// Assign each vertex a primary micro (uniform), plus optionally a
	// secondary micro in a different super.
	labels := &Labels{NumClasses: cfg.Super, Of: make([][]int, cfg.N)}
	microMembers := make([][]uint32, totalMicros)
	superMembers := make([][]uint32, cfg.Super)
	addMembership := func(v uint32, micro int) {
		s := micro / cfg.Micro
		microMembers[micro] = append(microMembers[micro], v)
		superMembers[s] = append(superMembers[s], v)
		labels.Of[v] = appendLabel(labels.Of[v], s)
	}
	for v := 0; v < cfg.N; v++ {
		micro := src.Intn(totalMicros)
		addMembership(uint32(v), micro)
		if cfg.OverlapProb > 0 && src.Bernoulli(cfg.OverlapProb) {
			second := src.Intn(totalMicros)
			if second/cfg.Micro != micro/cfg.Micro {
				addMembership(uint32(v), second)
			}
		}
	}

	// Optional power-law activities.
	weight := make([]float64, cfg.N)
	if cfg.DegreeSkew > 0 {
		pow := -1 / (cfg.DegreeSkew - 1)
		rank := make([]int, cfg.N)
		for i := range rank {
			rank[i] = i
		}
		for i := cfg.N - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			rank[i], rank[j] = rank[j], rank[i]
		}
		for v := 0; v < cfg.N; v++ {
			weight[v] = math.Pow(float64(rank[v]+10), pow)
		}
	} else {
		for v := range weight {
			weight[v] = 1
		}
	}

	var arcs []graph.Edge
	// sampleGroup draws enough random endpoint pairs from a member list to
	// hit an expected per-vertex degree of deg within the group.
	sampleGroup := func(members []uint32, deg float64) {
		k := len(members)
		if k < 2 || deg <= 0 {
			return
		}
		cum := make([]float64, k+1)
		for i, v := range members {
			cum[i+1] = cum[i] + weight[v]
		}
		edges := int64(deg * float64(k) / 2)
		for e := int64(0); e < edges; e++ {
			u := members[searchCum(cum, src.Float64()*cum[k])]
			v := members[searchCum(cum, src.Float64()*cum[k])]
			if u != v {
				arcs = append(arcs, graph.Edge{U: u, V: v})
			}
		}
	}
	for _, mem := range microMembers {
		sampleGroup(mem, cfg.DIn)
	}
	for _, mem := range superMembers {
		sampleGroup(mem, cfg.DMid)
	}
	// Background noise over all vertices.
	if cfg.DOut > 0 {
		all := make([]uint32, cfg.N)
		for v := range all {
			all[v] = uint32(v)
		}
		sampleGroup(all, cfg.DOut)
	}

	g, err := graph.FromEdges(cfg.N, arcs)
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

// appendLabel inserts c into a sorted label slice if absent.
func appendLabel(ls []int, c int) []int {
	for _, x := range ls {
		if x == c {
			return ls
		}
	}
	ls = append(ls, c)
	for i := len(ls) - 1; i > 0 && ls[i] < ls[i-1]; i-- {
		ls[i], ls[i-1] = ls[i-1], ls[i]
	}
	return ls
}

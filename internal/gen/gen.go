// Package gen provides deterministic synthetic graph generators that stand
// in for the paper's datasets (which are proprietary-scale web crawls and
// social networks; see DESIGN.md "Substitutions"). Three families cover the
// phenomena the evaluation depends on:
//
//   - SBM: stochastic block model with planted (optionally overlapping)
//     community labels — the node-classification workloads (BlogCatalog,
//     YouTube, Friendster, OAG replicas).
//   - Chung–Lu: power-law expected-degree graphs — the link-prediction and
//     scale workloads (LiveJournal, Hyperlink-PLD replicas).
//   - RMAT: recursive-matrix graphs with heavy skew — the very-large web
//     graph replicas (ClueWeb, Hyperlink2014).
//
// All generators take an explicit seed and produce identical graphs across
// runs and parallel schedules.
package gen

import (
	"fmt"
	"math"
	"sort"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// Labels assigns every vertex a set of class labels (multi-label, as in the
// paper's node-classification benchmarks).
type Labels struct {
	NumClasses int
	Of         [][]int // Of[v] lists v's classes, sorted ascending
}

// SBMConfig parameterizes a stochastic block model.
type SBMConfig struct {
	N           int     // vertices
	Communities int     // number of blocks
	PIn         float64 // edge probability within a shared community
	POut        float64 // edge probability otherwise
	// OverlapProb is the chance a vertex joins a second community
	// (multi-label structure). 0 = pure partition.
	OverlapProb float64
	// DegreeSkew, when positive, makes the model degree-corrected: vertex
	// activities follow a power law with this exponent (2-3 typical) and
	// edge endpoints are drawn proportionally to activity, producing the
	// hub-dominated degree distributions of real social graphs. 0 keeps
	// the classic (uniform) SBM.
	DegreeSkew float64
	Seed       uint64
}

// SBM samples a stochastic block model and returns the graph plus planted
// labels. Within-community edges are generated per community with geometric
// skipping (O(#edges)), and background edges with global skipping, so dense
// pIn and tiny pOut both run fast.
func SBM(cfg SBMConfig) (*graph.Graph, *Labels, error) {
	if cfg.N <= 0 || cfg.Communities <= 0 {
		return nil, nil, fmt.Errorf("gen: SBM needs positive N and Communities")
	}
	if cfg.PIn < 0 || cfg.PIn > 1 || cfg.POut < 0 || cfg.POut > 1 {
		return nil, nil, fmt.Errorf("gen: SBM probabilities must be in [0,1]")
	}
	src := rng.New(cfg.Seed, 0)
	labels := &Labels{NumClasses: cfg.Communities, Of: make([][]int, cfg.N)}
	members := make([][]uint32, cfg.Communities)
	for v := 0; v < cfg.N; v++ {
		c := src.Intn(cfg.Communities)
		labels.Of[v] = append(labels.Of[v], c)
		members[c] = append(members[c], uint32(v))
		if cfg.OverlapProb > 0 && src.Bernoulli(cfg.OverlapProb) {
			c2 := src.Intn(cfg.Communities)
			if c2 != c {
				labels.Of[v] = append(labels.Of[v], c2)
				members[c2] = append(members[c2], uint32(v))
			}
		}
		sort.Ints(labels.Of[v])
	}

	var arcs []graph.Edge
	if cfg.DegreeSkew > 0 {
		arcs = degreeCorrectedEdges(cfg, members, src)
	} else {
		// Within-community edges: iterate pairs of the member list with
		// geometric skips of parameter pIn.
		for _, mem := range members {
			k := len(mem)
			if k < 2 || cfg.PIn == 0 {
				continue
			}
			total := int64(k) * int64(k-1) / 2
			for idx := skipNext(src, cfg.PIn, -1); idx < total; idx = skipNext(src, cfg.PIn, idx) {
				i, j := pairFromIndex(idx)
				arcs = append(arcs, graph.Edge{U: mem[j], V: mem[i]})
			}
		}
		// Background edges over all pairs with parameter pOut (pairs inside
		// a community may be duplicated; dedup in the builder handles it and
		// the extra rate is negligible for pOut ≪ pIn).
		if cfg.POut > 0 {
			total := int64(cfg.N) * int64(cfg.N-1) / 2
			for idx := skipNext(src, cfg.POut, -1); idx < total; idx = skipNext(src, cfg.POut, idx) {
				i, j := pairFromIndex(idx)
				arcs = append(arcs, graph.Edge{U: uint32(j), V: uint32(i)})
			}
		}
	}
	g, err := graph.FromEdges(cfg.N, arcs, graph.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

// degreeCorrectedEdges samples the degree-corrected variant: the *number*
// of edges per community (and of background edges) matches the uniform
// model's expectation, but endpoints are drawn proportionally to power-law
// vertex activities, concentrating degree on hubs.
func degreeCorrectedEdges(cfg SBMConfig, members [][]uint32, src *rng.Source) []graph.Edge {
	// Power-law activities: w_v ∝ (rank_v + 10)^(-1/(skew-1)) with a random
	// rank permutation so hubs are not ID-correlated.
	n := cfg.N
	w := make([]float64, n)
	pow := -1 / (cfg.DegreeSkew - 1)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	for v := 0; v < n; v++ {
		w[v] = math.Pow(float64(rank[v]+10), pow)
	}
	var arcs []graph.Edge
	// drawFrom samples one endpoint from a member slice proportional to w,
	// via a cumulative table built once per community.
	for _, mem := range members {
		k := len(mem)
		if k < 2 || cfg.PIn == 0 {
			continue
		}
		cum := make([]float64, k+1)
		for i, v := range mem {
			cum[i+1] = cum[i] + w[v]
		}
		mEdges := int64(cfg.PIn * float64(k) * float64(k-1) / 2)
		for e := int64(0); e < mEdges; e++ {
			u := mem[searchCum(cum, src.Float64()*cum[k])]
			v := mem[searchCum(cum, src.Float64()*cum[k])]
			if u != v {
				arcs = append(arcs, graph.Edge{U: u, V: v})
			}
		}
	}
	if cfg.POut > 0 {
		cum := make([]float64, n+1)
		for v := 0; v < n; v++ {
			cum[v+1] = cum[v] + w[v]
		}
		mBg := int64(cfg.POut * float64(n) * float64(n-1) / 2)
		for e := int64(0); e < mBg; e++ {
			u := uint32(searchCum(cum, src.Float64()*cum[n]))
			v := uint32(searchCum(cum, src.Float64()*cum[n]))
			if u != v {
				arcs = append(arcs, graph.Edge{U: u, V: v})
			}
		}
	}
	return arcs
}

// searchCum returns the index i with cum[i] <= x < cum[i+1].
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// skipNext returns the next selected index after cur when each index is
// selected independently with probability p, using geometric jumps.
func skipNext(src *rng.Source, p float64, cur int64) int64 {
	if p >= 1 {
		return cur + 1
	}
	u := src.Float64()
	if u == 0 {
		u = 1e-18
	}
	gap := int64(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if gap < 1 {
		gap = 1
	}
	return cur + gap
}

// pairFromIndex maps a linear index over {(i,j) : 0 <= i < j} to the pair,
// enumerating j = 1,2,… with i < j.
func pairFromIndex(idx int64) (i, j int64) {
	// idx = j(j-1)/2 + i. Solve for j.
	j = int64((math.Sqrt(8*float64(idx)+1) + 1) / 2)
	for j*(j-1)/2 > idx {
		j--
	}
	for (j+1)*j/2 <= idx {
		j++
	}
	i = idx - j*(j-1)/2
	return i, j
}

// ChungLuConfig parameterizes a power-law expected-degree graph.
type ChungLuConfig struct {
	N         int
	AvgDegree float64
	// Exponent is the degree power-law exponent γ (weights ∝ i^{-1/(γ-1)});
	// typical social graphs have γ in [2, 3]. Default 2.5 when 0.
	Exponent float64
	Seed     uint64
}

// ChungLu samples m ≈ N·AvgDegree/2 undirected edges where endpoint u is
// drawn with probability proportional to its weight w_u, giving a power-law
// degree sequence.
func ChungLu(cfg ChungLuConfig) (*graph.Graph, error) {
	if cfg.N <= 0 || cfg.AvgDegree <= 0 {
		return nil, fmt.Errorf("gen: ChungLu needs positive N and AvgDegree")
	}
	gamma := cfg.Exponent
	if gamma == 0 {
		gamma = 2.5
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("gen: ChungLu exponent must exceed 1, got %g", gamma)
	}
	n := cfg.N
	w := make([]float64, n)
	pow := -1 / (gamma - 1)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+10), pow)
	}
	// Cumulative table for inverse-CDF endpoint sampling.
	cum := make([]float64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + w[i]
	}
	total := cum[n]
	src := rng.New(cfg.Seed, 1)
	m := int64(float64(n) * cfg.AvgDegree / 2)
	arcs := make([]graph.Edge, 0, m)
	draw := func() uint32 {
		x := src.Float64() * total
		idx := sort.SearchFloat64s(cum[1:], x)
		if idx >= n {
			idx = n - 1
		}
		return uint32(idx)
	}
	for k := int64(0); k < m; k++ {
		u, v := draw(), draw()
		if u == v {
			continue
		}
		arcs = append(arcs, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, arcs, graph.DefaultOptions())
}

// RMATConfig parameterizes a recursive-matrix generator.
type RMATConfig struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: approximately EdgeFactor·2^Scale undirected edges.
	EdgeFactor int
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). Zero values
	// select the Graph500 defaults (0.57, 0.19, 0.19).
	A, B, C float64
	Seed    uint64
}

// RMAT samples a recursive-matrix graph (Chakrabarti et al.), the standard
// model for heavy-tailed web graphs such as ClueWeb and Hyperlink2014.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale <= 0 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale must be in [1,30], got %d", cfg.Scale)
	}
	if cfg.EdgeFactor <= 0 {
		return nil, fmt.Errorf("gen: RMAT needs positive EdgeFactor")
	}
	a, b, c := cfg.A, cfg.B, cfg.C
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	if a+b+c >= 1 || a < 0 || b < 0 || c < 0 {
		return nil, fmt.Errorf("gen: RMAT quadrant probabilities invalid (a=%g b=%g c=%g)", a, b, c)
	}
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	src := rng.New(cfg.Seed, 2)
	arcs := make([]graph.Edge, 0, m)
	for k := int64(0); k < m; k++ {
		var u, v uint32
		for level := 0; level < cfg.Scale; level++ {
			r := src.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << level
			case r < a+b+c:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		if u == v {
			continue
		}
		arcs = append(arcs, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, arcs, graph.DefaultOptions())
}

// Stats summarizes a generated graph for reporting (Table 3 analog).
type Stats struct {
	Name      string
	N         int
	Arcs      int64
	AvgDegree float64
	MaxDegree int
}

// Describe computes summary statistics.
func Describe(name string, g *graph.Graph) Stats {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 0.0
	if g.NumVertices() > 0 {
		avg = float64(g.NumEdges()) / float64(g.NumVertices())
	}
	return Stats{Name: name, N: g.NumVertices(), Arcs: g.NumEdges(), AvgDegree: avg, MaxDegree: maxDeg}
}

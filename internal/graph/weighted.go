package graph

import (
	"fmt"
	"math/bits"
	"sort"

	"lightne/internal/par"
	"lightne/internal/rng"
)

// Weighted graphs. The paper's formulas are stated for weighted adjacency
// throughout — the downsampling probability is p_e = min(1, C·A_uv·(1/d_u +
// 1/d_v)) with weighted degrees, and vol(G) is the total weight — so the
// substrate supports edge weights natively: weights ride alongside the CSR
// edge array, weighted degrees (strengths) replace counts where the math
// says so, and random-walk steps draw neighbors proportionally to weight in
// O(1) via per-vertex alias tables (Vose's method), preserving the paper's
// "one random draw per walk step" cost model.
//
// Weighted adjacency is not combinable with parallel-byte compression (the
// weights would dominate memory anyway); ToCompressed rejects it.

// WeightedEdge is an edge with a positive weight.
type WeightedEdge struct {
	U, V uint32
	W    float64
}

// aliasTables holds per-edge alias data aligned with the CSR edge array:
// for vertex u's slot i, prob[off+i] is the acceptance probability and
// alias[off+i] the fallback local index.
type aliasTables struct {
	prob  []float64
	alias []uint32
}

// FromWeightedEdges builds the undirected weighted graph whose edges are
// arcs, as FromEdges does: self-loops are dropped, both orientations are
// stored, and duplicates (after symmetrization) have their weights summed.
// Non-positive weights are rejected.
func FromWeightedEdges(n int, arcs []WeightedEdge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	work := make([]WeightedEdge, 0, len(arcs)*2)
	for _, e := range arcs {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) exceeds vertex count %d", e.U, e.V, n)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("graph: arc (%d,%d) has non-positive weight %g", e.U, e.V, e.W)
		}
		if e.U != e.V {
			work = append(work, e, WeightedEdge{e.V, e.U, e.W})
		}
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].U != work[j].U {
			return work[i].U < work[j].U
		}
		return work[i].V < work[j].V
	})
	// Merge duplicates by summing weights, as FromEdges merges duplicate
	// arcs (a weighted multigraph is equivalent to its weight-summed simple
	// form).
	merged := work[:0]
	for _, e := range work {
		if len(merged) > 0 && merged[len(merged)-1].U == e.U && merged[len(merged)-1].V == e.V {
			merged[len(merged)-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	offsets := make([]int64, n+1)
	edges := make([]uint32, len(merged))
	weights := make([]float64, len(merged))
	for i, e := range merged {
		offsets[e.U+1]++
		edges[i] = e.V
		weights[i] = e.W
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	g := &Graph{n: n, offsets: offsets, edges: edges, weights: weights}
	g.buildAlias()
	return g, nil
}

// aliasScratch is the per-worker workspace of buildAlias: the scaled
// probabilities and the small/large worklists of Vose's construction. One
// vertex at a time borrows it; buildAlias sizes it to the maximum degree up
// front, so construction allocates a constant number of times regardless of
// vertex count (pinned by TestBuildAliasAllocs).
type aliasScratch struct {
	scaled []float64
	small  []uint32
	large  []uint32
}

// grow ensures capacity for a vertex of degree d.
func (sc *aliasScratch) grow(d int) {
	if cap(sc.scaled) < d {
		sc.scaled = make([]float64, d)
		sc.small = make([]uint32, 0, d)
		sc.large = make([]uint32, 0, d)
	}
}

// buildAlias constructs per-vertex alias tables (Vose's method) in parallel.
// Workers reuse one aliasScratch each (par.WorkerFor hands out dense worker
// indices), pre-sized to the maximum degree, so the loop allocates nothing
// per vertex.
func (g *Graph) buildAlias() {
	m := len(g.edges)
	g.alias = &aliasTables{
		prob:  make([]float64, m),
		alias: make([]uint32, m),
	}
	maxD := 0
	for u := 0; u < g.n; u++ {
		if d := int(g.offsets[u+1] - g.offsets[u]); d > maxD {
			maxD = d
		}
	}
	scratch := make([]aliasScratch, par.Workers())
	par.WorkerFor(g.n, 64, func(worker, lo, hi int) {
		sc := &scratch[worker]
		sc.grow(maxD)
		for ui := lo; ui < hi; ui++ {
			g.buildAliasRow(ui, sc)
		}
	})
}

// buildAliasRow fills vertex ui's alias-table row using the worker scratch.
func (g *Graph) buildAliasRow(ui int, sc *aliasScratch) {
	lo, hi := g.offsets[ui], g.offsets[ui+1]
	d := int(hi - lo)
	if d == 0 {
		return
	}
	w := g.weights[lo:hi]
	var total float64
	for _, x := range w {
		total += x
	}
	prob := g.alias.prob[lo:hi]
	alias := g.alias.alias[lo:hi]
	sc.grow(d)
	scaled := sc.scaled[:d]
	small := sc.small[:0]
	large := sc.large[:0]
	for i, x := range w {
		scaled[i] = x * float64(d) / total
		if scaled[i] < 1 {
			small = append(small, uint32(i))
		} else {
			large = append(large, uint32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, l := range large {
		prob[l] = 1
	}
	for _, s := range small {
		prob[s] = 1
	}
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// EdgeWeight returns the weight of u's i-th edge (1 for unweighted graphs).
func (g *Graph) EdgeWeight(u uint32, i int) float64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[g.offsets[u]+int64(i)]
}

// Strength returns the weighted degree Σ_v A_uv of u (equal to Degree for
// unweighted graphs).
func (g *Graph) Strength(u uint32) float64 {
	if g.weights == nil {
		return float64(g.Degree(u))
	}
	var s float64
	for p := g.offsets[u]; p < g.offsets[u+1]; p++ {
		s += g.weights[p]
	}
	return s
}

// Strengths returns all weighted degrees. For unweighted graphs this is
// identical to Degrees.
func (g *Graph) Strengths() []float64 {
	if g.weights == nil {
		return g.Degrees()
	}
	out := make([]float64, g.n)
	par.For(g.n, 256, func(u int) {
		out[u] = g.Strength(uint32(u))
	})
	return out
}

// TotalWeight returns vol(G): the sum of all arc weights (NumEdges for
// unweighted graphs). The weighted sum uses the deterministic fixed-geometry
// reduction so the volume — which scales every sparsifier entry — is
// bit-identical across worker counts, keeping the weighted pipeline's
// determinism contract intact end to end.
func (g *Graph) TotalWeight() float64 {
	if g.weights == nil {
		return float64(g.NumEdges())
	}
	return par.ReduceFloat64Det(len(g.weights), func(i int) float64 { return g.weights[i] })
}

// weightedRandomNeighbor draws a neighbor of u proportionally to edge
// weight in O(1) using the alias table.
func (g *Graph) weightedRandomNeighbor(u uint32, r *rng.Source) (uint32, bool) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	d := int(hi - lo)
	if d == 0 {
		return 0, false
	}
	i := r.Intn(d)
	if r.Float64() >= g.alias.prob[lo+int64(i)] {
		i = int(g.alias.alias[lo+int64(i)])
	}
	return g.edges[lo+int64(i)], true
}

// aliasCoinScale converts the low 32 bits of a keyed draw into a uniform
// fixed-point fraction in [0, 1): coin = low32 / 2^32.
const aliasCoinScale = 1.0 / (1 << 32)

// aliasPick resolves one alias-table draw from a single 64-bit uniform
// value: the slot comes from the high bits via the multiply-shift reduction
// ⌊draw·d/2^64⌋ and the acceptance coin from the low 32 bits as a
// fixed-point fraction. prob[i] == 1 slots always accept because the coin
// is strictly below 1.
func aliasPick(prob []float64, alias []uint32, draw uint64) int {
	hi, _ := bits.Mul64(draw, uint64(len(prob)))
	i := int(hi)
	if float64(uint32(draw))*aliasCoinScale >= prob[i] {
		i = int(alias[i])
	}
	return i
}

// AliasBytes reports the alias-table footprint: 12 bytes per stored arc
// (8 B acceptance probability + 4 B alias slot), zero for unweighted
// graphs. It is the alias share of SizeBytes, split out so the planner can
// account weighted batched walking explicitly.
func (g *Graph) AliasBytes() int64 {
	if g.alias == nil {
		return 0
	}
	return int64(len(g.alias.prob))*8 + int64(len(g.alias.alias))*4
}

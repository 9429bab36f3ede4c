package eval

import (
	"fmt"
	"math"
	"sort"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// SplitEdges removes a random fraction of undirected edges from g for link
// prediction, returning the training graph and the held-out test edges
// (each reported once, with U < V). Mirrors the PBG protocol the paper
// follows (§5.3: "randomly exclude … edges from the training graph").
func SplitEdges(g *graph.Graph, testFrac float64, seed uint64) (*graph.Graph, []graph.Edge, error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("eval: test fraction must be in (0,1), got %g", testFrac)
	}
	all := g.Edges()
	if len(all) < 2 {
		return nil, nil, fmt.Errorf("eval: too few edges to split")
	}
	src := rng.New(seed, 6)
	for i := len(all) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		all[i], all[j] = all[j], all[i]
	}
	nTest := int(math.Round(testFrac * float64(len(all))))
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= len(all) {
		nTest = len(all) - 1
	}
	test := append([]graph.Edge(nil), all[:nTest]...)
	train, err := graph.FromEdges(g.NumVertices(), all[nTest:])
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// dot computes the inner product of two embedding rows.
func dot(x *dense.Matrix, u, v uint32) float64 {
	a, b := x.Row(int(u)), x.Row(int(v))
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AUC estimates the link-prediction ROC-AUC: the probability that a held-out
// positive edge scores above a uniformly random non-edge, using negatives
// random vertex pairs per positive.
func AUC(x *dense.Matrix, test []graph.Edge, negatives int, seed uint64) float64 {
	if len(test) == 0 || negatives <= 0 {
		return 0
	}
	n := uint32(x.Rows)
	wins := make([]float64, len(test))
	par.ForRange(len(test), 16, func(lo, hi int) {
		var src rng.Source
		for i := lo; i < hi; i++ {
			src.Seed(seed, uint64(i))
			pos := dot(x, test[i].U, test[i].V)
			var w float64
			for k := 0; k < negatives; k++ {
				nu := uint32(src.Intn(int(n)))
				nv := uint32(src.Intn(int(n)))
				neg := dot(x, nu, nv)
				switch {
				case pos > neg:
					w += 1
				case pos == neg:
					w += 0.5
				}
			}
			wins[i] = w / float64(negatives)
		}
	})
	var s float64
	for _, w := range wins {
		s += w
	}
	return s / float64(len(test))
}

// RankingResult holds PBG-style ranking metrics over held-out edges.
type RankingResult struct {
	MR    float64         // mean rank (1 is best)
	MRR   float64         // mean reciprocal rank
	Hits  map[int]float64 // HITS@K for the requested cutoffs
	Tests int
}

// Ranking ranks each held-out edge (u,v) against `negatives` corrupted
// edges (u,v′) with v′ uniform, by embedding dot product, and aggregates
// MR, MRR and HITS@K — the protocol of the paper's PBG comparison (§5.2.1)
// and very-large-graph experiments (Figure 3).
func Ranking(x *dense.Matrix, test []graph.Edge, negatives int, ks []int, seed uint64) RankingResult {
	if len(test) == 0 || negatives <= 0 {
		return RankingResult{Hits: map[int]float64{}}
	}
	n := x.Rows
	type acc struct {
		sumRank float64
		sumRR   float64
		hits    []float64
	}
	sort.Ints(ks)
	accs := make([]acc, len(test))
	par.ForRange(len(test), 8, func(lo, hi int) {
		var src rng.Source
		for i := lo; i < hi; i++ {
			src.Seed(seed^0xabcdef, uint64(i))
			u, v := test[i].U, test[i].V
			pos := dot(x, u, v)
			rank := 1
			for k := 0; k < negatives; k++ {
				vp := uint32(src.Intn(n))
				if vp == u || vp == v {
					continue // filtered ranking: never count the true pair
				}
				if dot(x, u, vp) >= pos {
					rank++
				}
			}
			a := &accs[i]
			a.sumRank = float64(rank)
			a.sumRR = 1 / float64(rank)
			a.hits = make([]float64, len(ks))
			for j, kk := range ks {
				if rank <= kk {
					a.hits[j] = 1
				}
			}
		}
	})
	res := RankingResult{Hits: map[int]float64{}, Tests: len(test)}
	hitSums := make([]float64, len(ks))
	for i := range accs {
		res.MR += accs[i].sumRank
		res.MRR += accs[i].sumRR
		for j := range ks {
			hitSums[j] += accs[i].hits[j]
		}
	}
	res.MR /= float64(len(test))
	res.MRR /= float64(len(test))
	for j, kk := range ks {
		res.Hits[kk] = hitSums[j] / float64(len(test))
	}
	return res
}

// ExactRanking ranks each held-out edge (u, v) against every vertex of the
// graph (filtered: the true pair itself is excluded), rather than a sampled
// candidate set. O(n·d) per test edge — exact MR/MRR/HITS@K for small
// graphs, useful for validating the sampled Ranking estimates.
func ExactRanking(x *dense.Matrix, test []graph.Edge, ks []int, exclude func(u, v uint32) bool) RankingResult {
	if len(test) == 0 {
		return RankingResult{Hits: map[int]float64{}}
	}
	n := x.Rows
	sort.Ints(ks)
	type acc struct {
		rank int
	}
	accs := make([]acc, len(test))
	par.For(len(test), 4, func(i int) {
		u, v := test[i].U, test[i].V
		pos := dot(x, u, v)
		rank := 1
		for w := 0; w < n; w++ {
			vp := uint32(w)
			if vp == u || vp == v {
				continue
			}
			if exclude != nil && exclude(u, vp) {
				continue
			}
			if dot(x, u, vp) >= pos {
				rank++
			}
		}
		accs[i] = acc{rank}
	})
	res := RankingResult{Hits: map[int]float64{}, Tests: len(test)}
	hitSums := make([]float64, len(ks))
	for _, a := range accs {
		res.MR += float64(a.rank)
		res.MRR += 1 / float64(a.rank)
		for j, kk := range ks {
			if a.rank <= kk {
				hitSums[j]++
			}
		}
	}
	res.MR /= float64(len(test))
	res.MRR /= float64(len(test))
	for j, kk := range ks {
		res.Hits[kk] = hitSums[j] / float64(len(test))
	}
	return res
}

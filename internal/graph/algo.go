package graph

import (
	"sync/atomic"

	"lightne/internal/par"
)

// atomicStoreChanged flags a propagation round as non-converged.
func atomicStoreChanged(p *int64) { atomic.StoreInt64(p, 1) }

// ConnectedComponents labels each vertex with a component ID (the smallest
// vertex ID in its component) using parallel label propagation — the
// standard GBBS-style pointer-free variant: repeatedly sweep edges, lowering
// each endpoint's label to the minimum of the pair, until a fixed point.
// Returns the labels and the number of components.
func (g *Graph) ConnectedComponents() ([]uint32, int) {
	n := g.n
	labels := make([]uint32, n)
	next := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	for {
		var changed int64
		par.ForRange(n, 256, func(lo, hi int) {
			var localChanged int64
			nc := g.NewNeighborCursor()
			for ui := lo; ui < hi; ui++ {
				u := uint32(ui)
				best := labels[u]
				for _, v := range nc.List(u) {
					if l := labels[v]; l < best {
						best = l
					}
				}
				next[ui] = best
				if best != labels[u] {
					localChanged = 1
				}
			}
			if localChanged != 0 {
				atomicStoreChanged(&changed)
			}
		})
		labels, next = next, labels
		if changed == 0 {
			break
		}
	}
	// Count distinct roots.
	count := 0
	for i, l := range labels {
		if uint32(i) == l {
			count++
		}
	}
	return labels, count
}

// BFS returns the hop distance from src to every vertex (-1 if
// unreachable).
func (g *Graph) BFS(src uint32) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= g.n {
		return dist
	}
	dist[src] = 0
	frontier := []uint32{src}
	nc := g.NewNeighborCursor()
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []uint32
		for _, u := range frontier {
			for _, v := range nc.List(u) {
				if dist[v] == -1 {
					dist[v] = depth
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// DegreeHistogram returns counts[d] = number of vertices with degree d,
// up to the maximum degree.
func (g *Graph) DegreeHistogram() []int64 {
	maxDeg := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(uint32(u)); d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int64, maxDeg+1)
	for u := 0; u < g.n; u++ {
		counts[g.Degree(uint32(u))]++
	}
	return counts
}

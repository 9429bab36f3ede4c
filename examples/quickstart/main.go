// Quickstart: build a small graph in memory, embed it with LightNE, and
// inspect nearest neighbors in embedding space.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lightne"
)

func main() {
	// Two triangle communities bridged by a single edge:
	//   0-1-2 (triangle)   3-4-5 (triangle)   2-3 (bridge)
	arcs := []lightne.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
		{U: 2, V: 3},
	}
	g, err := lightne.NewGraph(6, arcs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d undirected edges\n", g.NumVertices(), g.NumEdges()/2)

	cfg := lightne.DefaultConfig(4) // 4-dimensional embedding
	cfg.T = 3                       // short context window for a tiny graph
	cfg.Seed = 42
	res, err := lightne.Embed(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: sparsifier %v (nnz=%d), rSVD %v, propagation %v\n",
		res.Timing.Sparsifier.Round(1e6), res.SparsifierNNZ,
		res.Timing.SVD.Round(1e6), res.Timing.Propagation.Round(1e6))

	// Rank every other vertex by cosine similarity to vertex 0. Its triangle
	// partners (1, 2) should come first, the far triangle (4, 5) last.
	nbrs, err := lightne.NearestNeighbors(res.Embedding, 0, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("neighbors of vertex 0 by embedding similarity:")
	for _, nb := range nbrs {
		fmt.Printf("  vertex %d: cosine %.3f\n", nb.Vertex, nb.Cosine)
	}
}

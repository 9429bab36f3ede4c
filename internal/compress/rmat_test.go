package compress_test

import (
	"sync"
	"testing"

	"lightne/internal/compress"
	"lightne/internal/gen"
)

// rmat13 is the benchmark harness's embed-stream graph shape: RMAT scale 13,
// edge factor 20, seed 1, symmetrized — as CSR arrays.
var rmat13 = sync.OnceValues(func() ([]int64, []uint32) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 20, Seed: 1})
	if err != nil {
		panic(err)
	}
	offsets := make([]int64, g.NumVertices()+1)
	edges := make([]uint32, 0, g.NumEdges())
	for u := range g.NumVertices() {
		edges = append(edges, g.Neighbors(uint32(u), nil)...)
		offsets[u+1] = int64(len(edges))
	}
	return offsets, edges
})

// TestDecodersAgreeOnRMAT13 checks every decoder against the CSR on the
// compressed RMAT-13 graph at block sizes 1, 2 and 64 (the default).
func TestDecodersAgreeOnRMAT13(t *testing.T) {
	offsets, edges := rmat13()
	adj := make([][]uint32, len(offsets)-1)
	for u := range adj {
		adj[u] = edges[offsets[u]:offsets[u+1]]
	}
	for _, bs := range []int{1, 2, 64} {
		a, err := compress.Build(offsets, edges, bs)
		if err != nil {
			t.Fatal(err)
		}
		compress.CheckDecoders(t, a, adj)
	}
}

// BenchmarkNeighbors decodes every vertex of the compressed RMAT-13 graph
// into one reused buffer, as the harness's compress.decode_marcs_per_s
// sweep and a full-mode cursor do; Marc/s is decoded arcs per second.
func BenchmarkNeighbors(b *testing.B) {
	offsets, edges := rmat13()
	a, err := compress.Build(offsets, edges, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := uint32(a.NumVertices())
	var buf []uint32
	b.ResetTimer()
	for range b.N {
		for u := range n {
			buf = a.Neighbors(u, buf[:0])
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Marc/s")
}

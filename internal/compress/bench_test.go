package compress

import (
	"sort"
	"testing"

	"lightne/internal/rng"
)

func buildRandomCSR(n, deg int, seed uint64) ([]int64, []uint32) {
	s := rng.New(seed, 0)
	offsets := make([]int64, n+1)
	var edges []uint32
	for u := 0; u < n; u++ {
		set := map[uint32]bool{}
		for len(set) < deg {
			set[uint32(s.Intn(n))] = true
		}
		var nbrs []uint32
		for v := range set {
			nbrs = append(nbrs, v)
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		edges = append(edges, nbrs...)
		offsets[u+1] = offsets[u] + int64(len(nbrs))
	}
	return offsets, edges
}

func BenchmarkBuild(b *testing.B) {
	offsets, edges := buildRandomCSR(20000, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(offsets, edges, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(edges) * 4))
}

func BenchmarkNth(b *testing.B) {
	offsets, edges := buildRandomCSR(20000, 64, 3)
	adj, err := Build(offsets, edges, 64)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(s.Intn(20000))
		_ = adj.Nth(u, s.Intn(int(adj.Degree(u))))
	}
}

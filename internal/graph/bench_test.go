package graph

import (
	"sync/atomic"
	"testing"

	"lightne/internal/rng"
)

func benchGraph(b *testing.B, compressed bool) *Graph {
	b.Helper()
	s := rng.New(1, 0)
	n := 20000
	arcs := make([]Edge, 0, n*10)
	for i := 0; i < n*10; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(n)), uint32(s.Intn(n))})
	}
	g, err := FromEdges(n, arcs)
	if err == nil && compressed {
		g, err = g.ToCompressed(0)
	}
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkMapEdgesPlain(b *testing.B) {
	g := benchGraph(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		g.MapEdges(func(u, v uint32) { atomic.AddInt64(&sum, int64(v)) })
	}
	b.SetBytes(g.NumEdges() * 4)
}

func BenchmarkMapEdgesCompressed(b *testing.B) {
	g := benchGraph(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		g.MapEdges(func(u, v uint32) { atomic.AddInt64(&sum, int64(v)) })
	}
	b.SetBytes(g.NumEdges() * 4)
}

func BenchmarkWalkPlain(b *testing.B) {
	g := benchGraph(b, false)
	s := rng.New(3, 0)
	u := uint32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = g.Walk(u, 10, s)
	}
}

func BenchmarkWalkCompressed(b *testing.B) {
	g := benchGraph(b, true)
	s := rng.New(3, 0)
	u := uint32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = g.Walk(u, 10, s)
	}
}

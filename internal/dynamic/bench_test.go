package dynamic

import (
	"testing"

	"lightne/internal/core"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/rng"
)

// BenchmarkDynamic times one incremental round at DefaultConfig(64) on
// RMAT-12 (edge factor 20, seed 1): New on the first 90 % of its arcs,
// AddEdges of the other 10 %, then Embed. state_MB is the sample state the
// embedder keeps between batches, measured after AddEdges.
func BenchmarkDynamic(b *testing.B) {
	full, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arcs := full.Edges()
	cut := len(arcs) * 9 / 10
	initial, err := graph.FromEdges(full.NumVertices(), arcs[:cut])
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(64)
	var state int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(initial, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.AddEdges(arcs[cut:]); err != nil {
			b.Fatal(err)
		}
		state = stateBytes(e)
		if _, err := e.Embed(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(state)/1e6, "state_MB")
}

// BenchmarkAddEdges times AddEdges of 10 random new edges on an embedder
// over RMAT-14 (edge factor 20, seed 1) at DefaultConfig(64): the graph
// update and the batch's sampling. Each round grows the same embedder.
func BenchmarkAddEdges(b *testing.B) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 14, EdgeFactor: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(g, core.DefaultConfig(64))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(3, 0)
	batch := make([]graph.Edge, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range batch {
			batch[k] = graph.Edge{U: uint32(src.Intn(g.NumVertices())), V: uint32(src.Intn(g.NumVertices()))}
		}
		if err := e.AddEdges(batch); err != nil {
			b.Fatal(err)
		}
	}
}

package prone

import (
	"testing"

	"lightne/internal/dense"
	"lightne/internal/gen"
	"lightne/internal/graph"
)

// benchPropagate times one default-order propagation at the shape of the
// harness's embed-default workload: RMAT-12, edge factor 20, d = 64.
func benchPropagate(b *testing.B, propagate func(*graph.Graph, *dense.Matrix, PropagationConfig) *dense.Matrix) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := dense.NewMatrix(g.NumVertices(), 64)
	x.FillGaussian(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		propagate(g, x, DefaultPropagation())
	}
}

// BenchmarkPropagate times Propagate in every kernel form this machine runs
// (sub-benchmarks go/, avx/, avx512/: the row accumulate under its SpMMs and
// the Chebyshev epilogue); BenchmarkPropagateOracle is the unfused version.
func BenchmarkPropagate(b *testing.B) {
	dense.ForEachKernel(func(name string) {
		b.Run(name, func(b *testing.B) {
			benchPropagate(b, func(g *graph.Graph, x *dense.Matrix, cfg PropagationConfig) *dense.Matrix {
				y, err := Propagate(g, x, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return y
			})
		})
	})
}

func BenchmarkPropagateOracle(b *testing.B) { benchPropagate(b, propagateOracle) }

// BenchmarkAdjacencyReads times the two per-arc adjacency sweeps Propagate
// and Factorize start from — A + I (adjacencyWithSelfLoops) and ProNE's
// modulated matrix (FactorizationMatrix) — on RMAT-13 (edge factor 20), raw
// and compressed at the default block size: the compressed rows read each
// list through one full decode.
func BenchmarkAdjacencyReads(b *testing.B) {
	raw, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := raw.ToCompressed(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []struct {
		name string
		g    *graph.Graph
	}{{"raw", raw}, {"compressed", comp}} {
		b.Run("selfloops/"+form.name, func(b *testing.B) {
			for range b.N {
				adjacencyWithSelfLoops(form.g)
			}
		})
		b.Run("factorization/"+form.name, func(b *testing.B) {
			for range b.N {
				if _, err := FactorizationMatrix(form.g, 0.75, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

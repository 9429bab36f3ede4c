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

func BenchmarkPropagate(b *testing.B) {
	benchPropagate(b, func(g *graph.Graph, x *dense.Matrix, cfg PropagationConfig) *dense.Matrix {
		y, err := Propagate(g, x, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return y
	})
}

func BenchmarkPropagateOracle(b *testing.B) { benchPropagate(b, propagateOracle) }

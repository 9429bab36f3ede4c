package ann

import (
	"fmt"
	"testing"

	"lightne/internal/quant"
)

// BenchmarkANN compares the exact scan against IVF search at several probe
// widths on a clustered snapshot — the recall/latency frontier `make
// bench-ann` reports. Query rows rotate so the benchmark is not a cache
// microbenchmark of one posting list.
func BenchmarkANN(b *testing.B) {
	const n, d, k = 50_000, 32, 10
	x := clusteredMatrix(n, d, 128, 0.15, 7)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 256, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := e.TopK(i%n, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, nprobe := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("ivf/nprobe=%d", nprobe), func(b *testing.B) {
			var scanned int
			for i := 0; i < b.N; i++ {
				_, _, s, err := ix.Search(e, i%n, k, nprobe)
				if err != nil {
					b.Fatal(err)
				}
				scanned += s
			}
			b.ReportMetric(float64(scanned)/float64(b.N), "rows/query")
		})
	}
}

// BenchmarkANNBuild measures index construction — the cost added to every
// snapshot publish when -ann is on — at the benchmark's two serving shapes
// and the server's defaults (4096×64 with nlist 64, 8192×32 with nlist 91),
// with the row-accumulate kernel Build runs next to the scalar oracle.
func BenchmarkANNBuild(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{4096, 64}, {8192, 32}} {
		e := quant.ToFloat32(clusteredMatrix(shape.n, shape.d, 64, 0.15, 7))
		for _, k := range []struct {
			name   string
			assign assigner
		}{{"rows", assignRows}, {"oracle", assignScalar}} {
			b.Run(fmt.Sprintf("%dx%d/%s", shape.n, shape.d, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := build(e, Config{Seed: 3}, k.assign); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

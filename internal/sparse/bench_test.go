package sparse

import (
	"testing"

	"lightne/internal/dense"
	"lightne/internal/rng"
)

// benchSpMM times spmm on the shapes the benchmark harness's two default
// embeds put through it: the RMAT-12 adjacency × 64 (propagation, 19 of the
// 21 products of a default embed), a ~250 k-entry matrix × 64 (the
// sparsifier the rSVD multiplies) and the RMAT-13 adjacency × 32. Gflop/s
// counts 2·nnz·d.
func benchSpMM(b *testing.B, spmm func(y *dense.Matrix, m *CSR, x *dense.Matrix)) {
	for _, s := range []struct {
		name              string
		scale, edgeFactor int
		d                 int
	}{
		{"rmat12_adj_d64", 12, 20, 64},
		{"rmat12_sparsifier_d64", 12, 45, 64},
		{"rmat13_adj_d32", 13, 20, 32},
	} {
		b.Run(s.name, func(b *testing.B) {
			m := rmatAdjacency(b, s.scale, s.edgeFactor)
			x := dense.NewMatrix(m.NumCols, s.d)
			x.FillGaussian(2)
			y := dense.NewMatrix(m.NumRows, s.d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spmm(y, m, x)
			}
			flops := 2 * float64(m.NNZ()) * float64(s.d) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
			b.ReportMetric(float64(m.NNZ()), "nnz")
		})
	}
}

// BenchmarkSpMM times the production product in every kernel form this
// machine runs (sub-benchmarks go/, avx/, avx512/); BenchmarkSpMMOracle is
// the one-entry loop it replaced.
func BenchmarkSpMM(b *testing.B) {
	dense.ForEachKernel(func(name string) {
		b.Run(name, func(b *testing.B) { benchSpMM(b, SpMM) })
	})
}
func BenchmarkSpMMOracle(b *testing.B) { benchSpMM(b, spmmOracle) }

func benchCOOInput(n, nnzPerRow int) (us, vs []uint32, ws []float64) {
	s := rng.New(7, 0)
	total := n * nnzPerRow
	us = make([]uint32, total)
	vs = make([]uint32, total)
	ws = make([]float64, total)
	for i := range us {
		us[i] = uint32(s.Intn(n))
		vs[i] = uint32(s.Intn(n))
		ws[i] = 1
	}
	return us, vs, ws
}

func benchFromCOO(b *testing.B, n, nnzPerRow int) {
	us, vs, ws := benchCOOInput(n, nnzPerRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromCOO(n, n, us, vs, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(us)) * 16)
}

func BenchmarkFromCOO_n50k_nnz40(b *testing.B) { benchFromCOO(b, 50000, 40) }
func BenchmarkFromCOO_n5k_nnz400(b *testing.B) { benchFromCOO(b, 5000, 400) }

func BenchmarkTruncLog(b *testing.B) {
	s := rng.New(3, 0)
	n := 10000
	var us, vs []uint32
	var ws []float64
	for i := 0; i < n*20; i++ {
		us = append(us, uint32(s.Intn(n)))
		vs = append(vs, uint32(s.Intn(n)))
		ws = append(ws, s.Float64()*4)
	}
	m, err := FromCOO(n, n, us, vs, ws)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TruncLog()
	}
}

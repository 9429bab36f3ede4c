package dense

import (
	"fmt"
	"testing"
)

func benchMatMul(b *testing.B, n, k, m int, matMul func(c, a, b *Matrix)) {
	a := NewMatrix(n, k)
	a.FillGaussian(1)
	x := NewMatrix(k, m)
	x.FillGaussian(2)
	c := NewMatrix(n, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(c, a, x)
	}
	b.SetBytes(int64(8 * (n*k + k*m + n*m)))
}

func BenchmarkMatMulTallSkinny(b *testing.B)  { benchMatMul(b, 4096, 128, 128, MatMul) }
func BenchmarkMatMulSquareSmall(b *testing.B) { benchMatMul(b, 128, 128, 128, MatMul) }

// benchKernelSets runs f as one sub-benchmark per kernel form this machine
// has ("go", then "avx" and "avx512" where the CPU supports them), so each
// kernel is timed next to its Go twin.
func benchKernelSets(b *testing.B, f func(b *testing.B)) {
	ForEachKernel(func(name string) { b.Run(name, f) })
}

// The lift-back products of a default embed (Z·P, Z·CU, Q·U_R), on the
// production kernel in every form and on the one-entry loop it replaced.
func BenchmarkMatMulEmbed(b *testing.B) {
	benchKernelSets(b, func(b *testing.B) { benchMatMul(b, 4096, 64, 64, MatMul) })
}
func BenchmarkMatMulEmbedOracle(b *testing.B) { benchMatMul(b, 4096, 64, 64, matMulOracle) }

// BenchmarkMatMulATB is the rSVD's C = Zᵀ·B at the embed-default shape,
// in every kernel form and on the row-update loop it replaced.
func BenchmarkMatMulATB(b *testing.B) {
	benchKernelSets(b, func(b *testing.B) { benchATB(b, MatMulATB) })
}
func BenchmarkMatMulATBOracle(b *testing.B) { benchATB(b, matMulATBOracle) }

func benchATB(b *testing.B, atb func(c, a, b *Matrix)) {
	z, y := randomMatrix(4096, 64, 1), randomMatrix(4096, 64, 2)
	c := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atb(c, z, y)
	}
}

// qrBenchShapes are the shapes the repo benchmark's workloads hand to the
// orthonormalizer: embed-default (4096×64), embed-stream (8192×32) and the
// RMAT-14 size the roadmap wants to move to (16384×64).
var qrBenchShapes = [][2]int{{4096, 64}, {8192, 32}, {16384, 64}}

func benchQR(b *testing.B, qr func(*Matrix) (*Matrix, *Matrix)) {
	b.Helper()
	for _, s := range qrBenchShapes {
		n, d := s[0], s[1]
		b.Run(fmt.Sprintf("%dx%d", n, d), func(b *testing.B) {
			a := NewMatrix(n, d)
			a.FillGaussian(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qr(a)
			}
			// geqrf + orgqr on the textbook count, as the harness reports it.
			flops := 4*float64(n)*float64(d)*float64(d) - 4.0/3*float64(d)*float64(d)*float64(d)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkQRTallSkinny times the production kernel in every form;
// BenchmarkQROracle is the pre-rewrite serial kernel on the same inputs
// (clone included, as the old QR did). `make bench-qr` runs them
// benchstat-friendly.
func BenchmarkQRTallSkinny(b *testing.B) {
	benchKernelSets(b, func(b *testing.B) { benchQR(b, QR) })
}

func BenchmarkQROracle(b *testing.B) {
	benchQR(b, func(a *Matrix) (*Matrix, *Matrix) { return qrOracle(a.Clone()) })
}

// BenchmarkUpdateDotPanels is one row sweep of the QR's fused kernel at the
// embed-default height (four panels of 4096 rows: update by one reflector,
// dots with the next), in every kernel form.
func BenchmarkUpdateDotPanels(b *testing.B) {
	const m, np = 4096, 4
	benchKernelSets(b, func(b *testing.B) {
		buf := randomMatrix(1, (np+2)*4*m+8*np, 5).Data
		c, v, u := buf[:np*4*m], buf[np*4*m:], buf[(np+1)*4*m:]
		s, acc := buf[(np+2)*4*m:][:4*np], buf[(np+2)*4*m+4*np:]
		for j := range s {
			s[j] = 1e-9
		}
		b.SetBytes(int64(8 * len(c)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			updateDotPanels(v, u, c, m, np, 4*m, s, acc, 0)
		}
	})
}

// BenchmarkSVD is the rSVD's k×k core at the embed-default shape, in both
// kernel forms and on the At/Set kernel it replaced.
func BenchmarkSVD(b *testing.B) {
	benchKernelSets(b, func(b *testing.B) { benchSVD(b, SVD) })
}
func BenchmarkSVDOracle(b *testing.B) { benchSVD(b, svdOracle) }

func benchSVD(b *testing.B, svd func(*Matrix) (*Matrix, []float64, *Matrix)) {
	a := randomMatrix(64, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svd(a)
	}
}

func BenchmarkFillGaussian(b *testing.B) {
	a := NewMatrix(1024, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FillGaussian(uint64(i))
	}
	b.SetBytes(int64(8 * len(a.Data)))
}

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

// The lift-back products of a default embed (Z·P, Z·CU, Y·CV, Q·U_R), on the
// production kernel and on the one-entry loop it replaced.
func BenchmarkMatMulEmbed(b *testing.B)       { benchMatMul(b, 4096, 64, 64, MatMul) }
func BenchmarkMatMulEmbedOracle(b *testing.B) { benchMatMul(b, 4096, 64, 64, matMulOracle) }

func BenchmarkMatMulATB(b *testing.B) {
	n, d := 4096, 128
	x := NewMatrix(n, d)
	x.FillGaussian(1)
	c := NewMatrix(d, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulATB(c, x, x)
	}
}

// qrBenchShapes are the shapes the repo benchmark's workloads hand to the
// orthonormalizer: embed-default (4096×64), embed-stream (8192×32) and the
// RMAT-14 size the roadmap wants to move to (16384×64).
var qrBenchShapes = [][2]int{{4096, 64}, {8192, 32}, {16384, 64}}

func benchQR(b *testing.B, qr func(*Matrix) (*Matrix, *Matrix)) {
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

// BenchmarkQRTallSkinny times the production kernel; BenchmarkQROracle is
// the pre-rewrite serial kernel on the same inputs (clone included, as the
// old QR did). `make bench-qr` runs the pair benchstat-friendly.
func BenchmarkQRTallSkinny(b *testing.B) { benchQR(b, QR) }

func BenchmarkQROracle(b *testing.B) {
	benchQR(b, func(a *Matrix) (*Matrix, *Matrix) { return qrOracle(a.Clone()) })
}

func BenchmarkSVDSmall(b *testing.B) {
	a := NewMatrix(128, 128)
	a.FillGaussian(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(a)
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

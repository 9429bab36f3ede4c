package rng

import (
	"math/big"
	"math/bits"
	"testing"
)

// mul64Oracle is the hand-rolled 128-bit product Intn used before
// math/bits.Mul64, kept as the reference: both are exact, so every draw
// Intn makes is unchanged.
func mul64Oracle(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// TestMul64MatchesOracleAndBigInt: bits.Mul64, the old hand-rolled product
// and math/big agree on random operands and on every pair of edge operands
// (0, 1, 2, 2³², 2⁶³, 2⁶⁴−1 and their neighbours).
func TestMul64MatchesOracleAndBigInt(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<64 - 2, 1<<64 - 1}
	var pairs [][2]uint64
	for _, x := range edges {
		for _, y := range edges {
			pairs = append(pairs, [2]uint64{x, y})
		}
	}
	src := New(59, 0)
	for i := 0; i < 20000; i++ {
		pairs = append(pairs, [2]uint64{src.Uint64(), src.Uint64() >> (src.Uint64() % 64)})
	}
	var want, by big.Int
	for _, p := range pairs {
		hi, lo := bits.Mul64(p[0], p[1])
		ohi, olo := mul64Oracle(p[0], p[1])
		want.SetUint64(p[0])
		want.Mul(&want, by.SetUint64(p[1]))
		got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		got.Or(got, new(big.Int).SetUint64(lo))
		if hi != ohi || lo != olo || got.Cmp(&want) != 0 {
			t.Fatalf("%d·%d: bits.Mul64 (%d, %d), oracle (%d, %d), big %v", p[0], p[1], hi, lo, ohi, olo, &want)
		}
	}
}

// TestIntnDrawsUnchanged: Intn's stream equals Lemire's method on the oracle
// product, draw for draw, for bounds that reject often (just above a power
// of two and near 2⁶³) and rarely.
func TestIntnDrawsUnchanged(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 1000, 1<<32 + 1, 1<<62 + 1, 1<<63 - 1} {
		a, b := New(61, uint64(n)), New(61, uint64(n))
		for i := 0; i < 2000; i++ {
			un := uint64(n)
			hi, lo := mul64Oracle(b.Uint64(), un)
			if lo < un {
				for thresh := (-un) % un; lo < thresh; {
					hi, lo = mul64Oracle(b.Uint64(), un)
				}
			}
			if got := a.Intn(n); got != int(hi) {
				t.Fatalf("n=%d draw %d: Intn %d, oracle %d", n, i, got, hi)
			}
		}
	}
}

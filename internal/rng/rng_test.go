package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed,stream) diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 0)
	b := New(42, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 collided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1, 0)
	f := func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1, 0).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 8 buckets; threshold is the 99.9% quantile of
	// chi2 with 7 dof (~24.3), padded for safety.
	s := New(99, 3)
	const buckets, draws = 8, 80000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 30 {
		t.Fatalf("chi2=%.2f too high; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5, 0)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %.4f far from 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(7, 0)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %.4f", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11, 0)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f far from 1", variance)
	}
}

// TestSincosMatchesSinCos: NormFloat64 takes both Box–Muller factors from
// one math.Sincos, which must return exactly math.Sin and math.Cos on the
// angles it sees, 2π·u for u in [0, 1) (the extremes included).
func TestSincosMatchesSinCos(t *testing.T) {
	s := New(17, 0)
	thetas := []float64{0, 2 * math.Pi * math.Nextafter(1, 0), math.Pi / 2, math.Pi, 1.5 * math.Pi}
	for i := 0; i < 1<<20; i++ {
		thetas = append(thetas, 2*math.Pi*s.Float64())
	}
	for _, theta := range thetas {
		sin, cos := math.Sincos(theta)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(theta)) || math.Float64bits(cos) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin, Cos = (%v, %v)", theta, sin, cos, math.Sin(theta), math.Cos(theta))
		}
	}
}

// TestFillNormMatchesSinCosOracle: FillNorm's variates are those of the
// Box–Muller pair computed with math.Sin and math.Cos, bit for bit.
func TestFillNormMatchesSinCosOracle(t *testing.T) {
	got := make([]float64, 1<<16+1)
	New(19, 3).FillNorm(got)
	s := New(19, 3)
	for i := 0; i < len(got); i += 2 {
		u1 := 1.0 - s.Float64()
		u2 := s.Float64()
		r := math.Sqrt(-2 * math.Log(u1))
		theta := 2 * math.Pi * u2
		want := []float64{r * math.Cos(theta), r * math.Sin(theta)}
		for k := 0; k < 2 && i+k < len(got); k++ {
			if math.Float64bits(got[i+k]) != math.Float64bits(want[k]) {
				t.Fatalf("variate %d = %v, Sin/Cos pair %v", i+k, got[i+k], want[k])
			}
		}
	}
}

func TestFillNorm(t *testing.T) {
	s := New(3, 0)
	buf := make([]float64, 4096)
	s.FillNorm(buf)
	allZero := true
	for _, v := range buf {
		if v != 0 {
			allZero = false
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad value %v", v)
		}
	}
	if allZero {
		t.Fatal("FillNorm produced all zeros")
	}
}

func TestSplitMix64NonZeroAvalanche(t *testing.T) {
	var s uint64
	a := SplitMix64(&s)
	b := SplitMix64(&s)
	if a == b {
		t.Fatal("consecutive SplitMix64 outputs equal")
	}
}

func TestSeedAllZeroGuard(t *testing.T) {
	// Whatever the seed, internal state must never be all zeros (a fixed
	// point of xoshiro). Exercise a bunch of adversarial seeds.
	for _, seed := range []uint64{0, ^uint64(0), 0x9e3779b97f4a7c15} {
		s := New(seed, 0)
		if s.s0|s.s1|s.s2|s.s3 == 0 {
			t.Fatalf("seed %x produced all-zero state", seed)
		}
		_ = s.Uint64()
	}
}

// TestHash64Uniformity drives the keyed hash with the adversarial key shape
// the batched walker uses — densely packed sequential (head, step, side)
// triples — and checks the outputs look uniform: bucket occupancy close to
// expectation and every output bit unbiased.
func TestHash64Uniformity(t *testing.T) {
	const n = 1 << 16
	const buckets = 64
	var counts [buckets]int
	var bitOnes [64]int
	seen := make(map[uint64]bool, n)
	for head := 0; head < n/32; head++ {
		for step := 0; step < 16; step++ {
			for side := uint64(0); side < 2; side++ {
				key := uint64(head)<<10 | uint64(step)<<1 | side
				h := Hash64(12345, key)
				counts[h%buckets]++
				for b := 0; b < 64; b++ {
					bitOnes[b] += int(h >> b & 1)
				}
				seen[h] = true
			}
		}
	}
	total := (n / 32) * 16 * 2
	if len(seen) != total {
		t.Fatalf("collisions: %d distinct outputs for %d keys", len(seen), total)
	}
	want := float64(total) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Fatalf("bucket %d: %d hits, want ~%.0f", i, c, want)
		}
	}
	for b, ones := range bitOnes {
		frac := float64(ones) / float64(total)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("output bit %d biased: %.3f ones", b, frac)
		}
	}
}

// TestHash64SeedSeparation checks distinct seeds decorrelate the same key.
func TestHash64SeedSeparation(t *testing.T) {
	for key := uint64(0); key < 1000; key++ {
		if Hash64(1, key) == Hash64(2, key) {
			t.Fatalf("key %d collides across seeds", key)
		}
	}
	if Hash64(7, 0) == Hash64(7, 1) {
		t.Fatal("adjacent keys collide")
	}
}

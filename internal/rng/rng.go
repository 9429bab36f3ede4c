// Package rng provides fast, seedable, allocation-free pseudo-random number
// generators used by the samplers and the randomized SVD. It replaces both
// the per-thread RNG state GBBS threads carry and Intel MKL's vsRngGaussian
// vector Gaussian generator.
//
// The core generator is xoshiro256++ seeded through SplitMix64, the standard
// pairing recommended by the xoshiro authors: SplitMix64 decorrelates
// low-entropy seeds, and xoshiro256++ passes BigCrush while costing a handful
// of ALU ops per draw. Each parallel worker derives an independent stream by
// seeding with (seed, streamID), so results are deterministic regardless of
// scheduling.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the SplitMix64 state in *s and returns the next value.
// It is used for seeding and as a cheap standalone generator for hashing.
func SplitMix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 returns 64 uniform bits for a (seed, key) pair with a single
// SplitMix64 finalization — the same stream-decorrelation mix Seed uses,
// without constructing a full xoshiro state (four finalizations plus the
// zero-state check). Use it for *single* keyed draws, where seeding a whole
// stream per draw would dominate the work; draws that need more than 64
// bits must still build a Source.
//
// Distinct (seed, key) pairs give independent values with full avalanche
// (the finalizer is the murmur-style mixer SplitMix64 is built on), so a
// consumer keyed the same way as a Seed-per-draw stream keeps the same
// determinism guarantees: the value depends only on (seed, key), never on
// execution order.
func Hash64(seed, key uint64) uint64 {
	x := seed ^ key*0xda942042e4dd58b5
	return SplitMix64(&x)
}

// Source is a xoshiro256++ generator. The zero value is invalid; construct
// with New or Seed before use.
type Source struct {
	s0, s1, s2, s3 uint64
	// cached spare Gaussian from Box-Muller
	spare    float64
	hasSpare bool
}

// New returns a Source for the given seed and stream. Distinct (seed, stream)
// pairs yield decorrelated sequences.
func New(seed, stream uint64) *Source {
	var s Source
	s.Seed(seed, stream)
	return &s
}

// Seed (re)initializes the generator for a (seed, stream) pair.
func (s *Source) Seed(seed, stream uint64) {
	sm := seed ^ (stream * 0xda942042e4dd58b5)
	s.s0 = SplitMix64(&sm)
	s.s1 = SplitMix64(&sm)
	s.s2 = SplitMix64(&sm)
	s.s3 = SplitMix64(&sm)
	// xoshiro must not start in the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	s.hasSpare = false
}

// State returns the four xoshiro256++ state words, for a vector loop that
// runs the generator in lanes (dense.FillGaussian).
func (s *Source) State() (s0, s1, s2, s3 uint64) { return s.s0, s.s1, s.s2, s.s3 }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniformly random integer in [0, n). n must be > 0.
// It uses Lemire's multiply-shift rejection method, which avoids the modulo
// bias of the naive `rand % n` while costing one multiply in the common case.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate via the Box-Muller transform
// (the polar/rejection-free form), caching the spare draw. This is the
// stand-in for MKL's vsRngGaussian.
func (s *Source) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	// Basic Box-Muller: u1 in (0,1], u2 in [0,1).
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	s.spare = r * sin
	s.hasSpare = true
	return r * cos
}

// FillNorm fills dst with independent standard normal variates.
func (s *Source) FillNorm(dst []float64) {
	for i := range dst {
		dst[i] = s.NormFloat64()
	}
}

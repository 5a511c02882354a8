// Package rng provides small, fast, deterministic pseudo-random number
// generators used to synthesise branch traces.
//
// The generators here are seeded explicitly and never draw entropy from
// the environment, so every workload built on top of them is
// bit-reproducible across runs and platforms. The package implements
// splitmix64 (for seeding and cheap one-shot mixing) and xoshiro256**
// (for bulk stream generation), both public-domain algorithms by
// Blackman and Vigna.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit generator with a single word of state.
// It is primarily used to expand one user-provided seed into the larger
// state required by Xoshiro256, and as a cheap stateless mixer.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a high-quality
// stateless mixing function: distinct inputs produce well-dispersed
// outputs. Mix64(0) != 0.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator. It has 256 bits
// of state, passes stringent statistical test batteries, and is fast
// enough to sit inside trace-generation inner loops.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// splitmix64, as recommended by the algorithm's authors. Any seed,
// including zero, yields a valid (non-degenerate) state.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	return &Xoshiro256{sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()}
}

// Uint64 returns the next value in the sequence.
func (x *Xoshiro256) Uint64() uint64 {
	v, next := x.step()
	*x = next
	return v
}

// step returns the next value and the state after it. It works on a
// copy, so a loop that keeps the state in a local variable lets the
// compiler hold it in registers.
func (x Xoshiro256) step() (uint64, Xoshiro256) {
	v := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return v, x
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// The implementation uses Lemire's multiply-shift reduction with a
// rejection step, so the result is exactly uniform.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	// Rejection sampling on the top range to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := x.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Values of p <= 0 always return
// false; values >= 1 always return true. Neither draws from the
// generator.
func (x *Xoshiro256) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Float64() < p
}

// Threshold returns the integer form of probability p for Hit:
// ceil(p·2^53). A draw u satisfies Float64() < p, that is
// (u>>11)/2^53 < p, exactly when u>>11 < ceil(p·2^53), because u>>11
// is an integer and p·2^53 is exact. Threshold is 0 (Hit never
// holds) for p <= 0 or NaN and 2^53 (Hit always holds) for p >= 1.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// Hit draws once from a copy of the generator and reports whether the
// draw falls below threshold t, returning the state after the draw.
// With t = Threshold(p) and 0 < p < 1 it decides what Bool(p) decides
// and consumes the same draw, without a float conversion. It works on
// a value so that a loop keeping the generator in a local variable
// lets the compiler hold the state in registers.
func (x Xoshiro256) Hit(t uint64) (bool, Xoshiro256) {
	v, next := x.step()
	return v>>11 < t, next
}

// geometricCap bounds geometric samples, cutting off pathological
// tails when the success probability is tiny.
const geometricCap = 1 << 20

// GeometricBelow returns the number of draws up to and including the
// first that falls below threshold t, capped at 1<<20. With
// t = Threshold(p) and 0 < p < 1 it is Geometric(p), draw for draw.
func (x *Xoshiro256) GeometricBelow(t uint64) int {
	s := *x
	n := 1
	for {
		var hit bool
		if hit, s = s.Hit(t); hit {
			break
		}
		n++
		if n >= geometricCap {
			break
		}
	}
	*x = s
	return n
}

// Geometric returns a sample from the geometric distribution with
// success probability p (support {1, 2, 3, ...}, mean 1/p). It panics
// unless 0 < p <= 1. The sample is capped at 1<<20 to bound pathological
// tails when p is tiny. Each trial is one Bool(p); p == 1 succeeds
// without a draw.
func (x *Xoshiro256) Geometric(p float64) int {
	return NewChance(p).Geometric(x)
}

// Chance is a probability prepared for repeated draws: Bool and
// Geometric give what the generator's methods of the same name give
// for p, and consume the same draws, but compare integers against a
// threshold computed once.
type Chance struct {
	p float64
	t uint64 // Threshold(p)
}

// NewChance prepares probability p.
func NewChance(p float64) Chance { return Chance{p: p, t: Threshold(p)} }

// Bool is x.Bool(p).
func (c Chance) Bool(x *Xoshiro256) bool {
	if c.p <= 0 {
		return false
	}
	if c.p >= 1 {
		return true
	}
	hit, next := x.Hit(c.t)
	*x = next
	return hit
}

// Geometric is x.Geometric(p), including its panic unless 0 < p <= 1.
func (c Chance) Geometric(x *Xoshiro256) int {
	if c.p <= 0 || c.p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if c.p == 1 {
		return 1
	}
	return x.GeometricBelow(c.t)
}

// Perm fills dst with a uniform random permutation of 0..len(dst)-1
// using the Fisher-Yates shuffle.
func (x *Xoshiro256) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

package rng

import "math/rand"

// source is math/rand's additive lagged-Fibonacci generator (Mitchell and
// Reeds; lags 607 and 273), reproduced bit for bit: seeded with s, it draws
// exactly the stream of rand.NewSource(s). Only Seed is built differently.
// math/rand fills the 607-word state from x_n = 48271ⁿ·x₀ mod (2³¹−1) for
// n = 1…1841 through a chain of dependent Schrage divisions; Seed computes
// each x_n it uses (n = 21…1841) straight from x₀ and a tabulated power,
// reduced modulo the Mersenne prime without a division. The 1,821 products
// do not depend on each other, so the reseed every Monte Carlo batch pays
// is a few times cheaper while the stream stays the same.
type source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

var _ rand.Source64 = (*source)(nil)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Mersenne prime modulus of the seed sequence
	seedMul  = 48271     // x_{n+1} = seedMul·x_n mod int32max
	// seedSkip seed values (x_1…x_20) are drawn and dropped before the
	// first state word.
	seedSkip = 20
)

// seedPow[i][j] = 48271^(seedSkip+1+3i+j) mod (2³¹−1): the powers that
// take x₀ to the three seed values state word i mixes.
var seedPow = func() (t [rngLen][3]uint32) {
	x := uint64(1)
	for range seedSkip {
		x = x * seedMul % int32max
	}
	for i := range t {
		for j := range t[i] {
			x = x * seedMul % int32max
			t[i][j] = uint32(x)
		}
	}
	return t
}()

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹. Since 2³¹ ≡ 1, one fold
// of the 62-bit product leaves r < 2·(2³¹−1), and one conditional
// subtraction ends the reduction.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed sets the state rand.NewSource(seed) starts from, normalizing the
// seed as math/rand does.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x0 := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := mulMod(uint64(p[0]), x0)<<40 ^ mulMod(uint64(p[1]), x0)<<20 ^ mulMod(uint64(p[2]), x0)
		s.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer as a uint64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}

	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}

	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Package rng provides deterministic, independently seeded random number
// streams for Monte Carlo experiments.
//
// Every stochastic component in the repository receives its randomness from
// an explicit *rand.Rand created here, never from the global source, so that
// each experiment is reproducible from a single root seed. Parallel workers
// derive their own streams with Derive, which uses SplitMix64 so that streams
// with nearby indices are statistically independent.
//
// The generators draw math/rand's stream: their source is math/rand's
// lagged-Fibonacci generator, bit for bit, seeded by jump-ahead (each seed
// value computed straight from the normalized seed) rather than by
// math/rand's serial seed chain. A stream is the one rand.NewSource would
// draw from the same seed; only the reseed that DeriveInto does once per
// Monte Carlo batch is cheaper.
package rng

import "math/rand"

// DefaultSeed is the root seed used by all experiment runners unless
// overridden. Its value is arbitrary but frozen: changing it invalidates the
// regression baselines in EXPERIMENTS.md.
const DefaultSeed uint64 = 0x5EEDCAFE_2010DAC1

// SplitMix64 advances x by one SplitMix64 step and returns the mixed output.
// It is the standard seeding generator recommended for initializing other
// PRNGs; we use it to derive independent stream seeds from a root seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a fresh generator seeded from the given root seed.
func New(seed uint64) *rand.Rand {
	return rand.New(newSource(int64(SplitMix64(seed))))
}

// Derive returns a generator for the stream-th independent substream of the
// given root seed. Substreams are decorrelated by double SplitMix64 mixing,
// so worker i and worker i+1 do not share low-bit structure.
func Derive(seed, stream uint64) *rand.Rand {
	return rand.New(newSource(int64(deriveSeed(seed, stream))))
}

// DeriveInto reseeds r in place onto the stream-th substream of seed: r then
// produces exactly the stream Derive(seed, stream) would, without allocating
// a new ~5 KB source. Loops that walk many substreams keep one generator.
func DeriveInto(r *rand.Rand, seed, stream uint64) {
	r.Seed(int64(deriveSeed(seed, stream)))
}

// deriveSeed mixes a root seed and a substream index into the substream's
// source seed.
func deriveSeed(seed, stream uint64) uint64 {
	return SplitMix64(seed ^ SplitMix64(stream*0xA5A5A5A5_5A5A5A5B+1))
}

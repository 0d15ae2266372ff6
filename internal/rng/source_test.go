package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws passes two wraps of the 607-word lag register, so every
// state word has fed the output twice.
const sourceDraws = 1300

// sourceSeeds returns the seeds the stream-identity tests compare on: the
// normalization edges (0, ±1, multiples of 2³¹−1 and their neighbours, the
// int64 extremes, math/rand's zero substitute 89482311) and 1,024 seeds
// drawn by SplitMix64.
func sourceSeeds() []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2,
		m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 3 * m, -3 * m, m << 32, -(m << 32),
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		89482311, -89482311, 89482311 + m, 89482311 - m,
		1<<31 - 2, 1 << 31, -(1 << 31),
	}
	for i := range uint64(1024) {
		seeds = append(seeds, int64(SplitMix64(i)))
	}
	return seeds
}

// The source draws math/rand's stream: for every seed, the state Seed
// builds by jump-ahead gives the Uint64 and Int63 sequences of
// rand.NewSource.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := range sourceDraws {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 after %d draws = %d, math/rand %d", seed, sourceDraws, g, w)
		}
	}
}

// Reseeding in place through rand.Rand.Seed, the DeriveInto path, gives
// the Float64, ExpFloat64, NormFloat64 and Intn sequences of a fresh
// rand.New(rand.NewSource(seed)), whatever the generator drew before.
func TestSourceReseedMatchesFreshMathRand(t *testing.T) {
	r := rand.New(newSource(7))
	for _, seed := range sourceSeeds() {
		_ = r.Float64()
		_ = r.NormFloat64()
		r.Seed(seed)
		fresh := rand.New(rand.NewSource(seed))
		for i := range sourceDraws / 4 {
			if g, w := r.Float64(), fresh.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := r.ExpFloat64(), fresh.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := r.NormFloat64(), fresh.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := r.Intn(1000+i), fresh.Intn(1000+i); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// BenchmarkReseed times one DeriveInto reseed, the cost a Monte Carlo
// worker pays per round batch, on the jump-ahead source and on math/rand's
// own. Both arms run in one benchmark function so that each -count
// iteration times them back to back. Registered in BENCH_BASELINE.json
// with the ratio gate source ÷ mathrand.
func BenchmarkReseed(b *testing.B) {
	for _, arm := range []struct {
		name string
		src  rand.Source
	}{
		{"source", newSource(1)},
		{"mathrand", rand.NewSource(1)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			r := rand.New(arm.src)
			for i := range b.N {
				DeriveInto(r, DefaultSeed, uint64(i))
			}
		})
	}
}

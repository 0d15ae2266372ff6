package rareevent

import (
	"math/rand/v2"
	"testing"

	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// testRand returns the test stream for seed: math/rand/v2's PCG seeded
// with (rng.SplitMix64(seed), 0).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(rng.SplitMix64(seed), 0))
}

// BenchmarkRowYieldRareEvent measures the steady-state unit of work of
// each rare-event estimator on the Table 1-class fixture (W = 142.7 nm,
// worst corner): one weighted importance-sampling round for the tilted
// path, one full fixed-effort splitting replica for the splitting path.
// Registered in BENCH_BASELINE.json and gated in CI; the ratio gate
// there holds the tilted round to a bounded overhead over the plain
// unaligned round it replaces.
func BenchmarkRowYieldRareEvent(b *testing.B) {
	m := probeModel(b, 142.7)

	b.Run("tilted", func(b *testing.B) {
		ladder, err := tiltLadder(m)
		if err != nil || len(ladder) < 3 {
			b.Fatalf("ladder: %v %v", ladder, err)
		}
		tm, err := m.Tilted(ladder[0])
		if err != nil {
			b.Fatal(err)
		}
		st := tm.NewRoundState()
		r := testRand(3)
		if _, _, err := tm.Moments(r, rowyield.DirectionalUnaligned, st); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tm.Moments(r, rowyield.DirectionalUnaligned, st); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("splitting", func(b *testing.B) {
		e, err := newSplitEngine(m, rowyield.DirectionalUnaligned, Options{
			Population: 64, Moves: 2,
		}.withDefaults())
		if err != nil {
			b.Fatal(err)
		}
		sc := e.newScratch()
		r := testRand(3)
		e.replica(r, sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.replica(r, sc)
		}
	})
}

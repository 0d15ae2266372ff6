package rowyield

import (
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/rng"
)

// testRand returns the test stream for seed: math/rand's generator seeded
// with rng.SplitMix64(seed).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(rng.SplitMix64(seed))))
}

// benchModel is the Table 1-class row model the MC benchmarks run on: the
// calibrated pitch law, worst-corner pf, the paper's 200 µm rows (360 FETs)
// and a 14-position offset spread comparable to the measured 45 nm library.
func benchModel(b *testing.B) *RowModel {
	b.Helper()
	pitch, err := device.CalibratedPitch()
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]float64, 14)
	probs := make([]float64, 14)
	for i := range offs {
		offs[i], probs[i] = float64(i)*20, 1
	}
	od, err := NewOffsetDist(offs, probs)
	if err != nil {
		b.Fatal(err)
	}
	m := &RowModel{
		Pitch:         pitch,
		PerCNTFailure: 0.531,
		WidthNM:       142.7,
		LCNTNM:        200_000,
		DensityPerUM:  1.8,
		Offsets:       od,
	}
	if err := m.Prepare(); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkRowYieldMC measures one steady-state Monte Carlo round per
// directional scenario at the default Table 1 grid — the inner-loop cost behind
// /v1/rowyield, /v2/query row sweeps and `cnfetyield table1`. Registered in
// BENCH_BASELINE.json and gated in CI.
func BenchmarkRowYieldMC(b *testing.B) {
	m := benchModel(b)
	for _, tc := range []struct {
		name string
		s    Scenario
	}{
		{"aligned", DirectionalAligned},
		{"unaligned", DirectionalUnaligned},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := m.NewRoundState()
			r := testRand(3)
			if _, err := m.Round(r, tc.s, st); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Round(r, tc.s, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRowYieldMCParallel measures the full parallel estimator over a
// fixed round budget: engine coordination (atomic batch queue, per-worker
// state) plus the rounds themselves.
func BenchmarkRowYieldMCParallel(b *testing.B) {
	m := benchModel(b)
	unaligned := func(r *rand.Rand, st *RoundState) (float64, error) {
		return m.Round(r, DirectionalUnaligned, st)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.RunState(b.Context(), 512, m.NewRoundState, unaligned, montecarlo.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowYieldObsOverhead prices the observability layer on the hot
// path: "off" is the bare estimator, "on" runs it exactly as an instrumented
// evaluation does — inside a span, with the engine flushing its round/batch
// counters into span-held atomics at worker exit. The on/off ratio is gated
// at 1.05x in BENCH_BASELINE.json: tracing must stay effectively free.
func BenchmarkRowYieldObsOverhead(b *testing.B) {
	const rounds = 4096
	run := func(b *testing.B, instrument bool) {
		m := benchModel(b)
		unaligned := func(r *rand.Rand, st *RoundState) (float64, error) {
			return m.Round(r, DirectionalUnaligned, st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := montecarlo.Options{Seed: 7, Workers: 1}
			var sp *obs.Span
			if instrument {
				_, sp = obs.Start(obs.WithTracer(b.Context(), obs.New()), "mc.run")
				opt.Counters = sp.MC()
			}
			if _, err := montecarlo.RunState(b.Context(), rounds, m.NewRoundState, unaligned, opt); err != nil {
				b.Fatal(err)
			}
			sp.End()
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationRowDP compares the exact run-length DP row-failure
// evaluation against naive Bernoulli Monte Carlo on identical geometry.
// The DP delivers an exact conditional probability in the time the naive
// estimator needs for a handful of coin-flip rounds — and the naive
// estimator cannot resolve 1e-8-scale probabilities at all.
func BenchmarkAblationRowDP(b *testing.B) {
	intervals := make([]Interval, 12)
	for i := range intervals {
		lo := i * 5
		intervals[i] = Interval{Lo: lo, Hi: lo + 24}
	}
	const nTracks = 90
	const pf = 0.531
	b.Run("ExactDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exactRowFailure(intervals, nTracks, pf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveMC1k", func(b *testing.B) {
		r := testRand(1)
		fails := 0
		for i := 0; i < b.N; i++ {
			for round := 0; round < 1000; round++ {
				var tracks [nTracks]bool
				for t := range tracks {
					tracks[t] = r.Float64() < pf
				}
				for _, iv := range intervals {
					all := true
					for t := iv.Lo; t <= iv.Hi; t++ {
						if !tracks[t] {
							all = false
							break
						}
					}
					if all {
						fails++
						break
					}
				}
			}
		}
		_ = fails
	})
}

// Benchmarks: one per paper table/figure (regenerating the artifact with
// reduced Monte Carlo budgets) plus ablations for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package yieldlab_test

import (
	"math"
	"sync"
	"testing"

	"github.com/cnfet/yieldlab"
	"github.com/cnfet/yieldlab/internal/alignactive"
	"github.com/cnfet/yieldlab/internal/celllib"
	"github.com/cnfet/yieldlab/internal/cntgrowth"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// benchRunner shares one experiment runner (and its cached renewal sweeps)
// across benchmarks, mirroring how the CLI runs `all`.
var (
	benchOnce   sync.Once
	benchShared *yieldlab.Runner
)

func benchParams() yieldlab.Params {
	p := yieldlab.DefaultParams()
	p.MCRounds = 20_000
	p.CorrelationRounds = 150
	p.NetlistInstances = 5_000
	return p
}

func runner(b *testing.B) *yieldlab.Runner {
	benchOnce.Do(func() { benchShared = yieldlab.NewRunner(benchParams()) })
	return benchShared
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r := runner(b)
	// Warm the shared caches outside the timed region.
	if _, err := r.Run(b.Context(), name); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(b.Context(), name)
		if err != nil {
			b.Fatal(err)
		}
		if res.Table == nil {
			b.Fatal("missing table")
		}
	}
}

// BenchmarkFig21 regenerates the pF-vs-width curves of Fig. 2.1.
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig2.1") }

// BenchmarkFig22a regenerates the width histogram of Fig. 2.2a.
func BenchmarkFig22a(b *testing.B) { benchExperiment(b, "fig2.2a") }

// BenchmarkFig22b regenerates the penalty-vs-node sweep of Fig. 2.2b.
func BenchmarkFig22b(b *testing.B) { benchExperiment(b, "fig2.2b") }

// BenchmarkTable1 regenerates the three-scenario row-failure Monte Carlo.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig31 regenerates the growth-correlation measurement.
func BenchmarkFig31(b *testing.B) { benchExperiment(b, "fig3.1") }

// BenchmarkFig32 regenerates the AOI222_X1 alignment.
func BenchmarkFig32(b *testing.B) { benchExperiment(b, "fig3.2") }

// BenchmarkFig33 regenerates the before/after penalty sweep of Fig. 3.3.
func BenchmarkFig33(b *testing.B) { benchExperiment(b, "fig3.3") }

// BenchmarkTable2 regenerates the library-wide alignment cost table.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkAblationPitchDistributions compares the device failure model
// under different pitch laws with the same 4 nm mean: the calibrated
// truncated normal, the memoryless exponential (Poisson counting), and the
// idealized deterministic pitch. The reported pF(155 nm) metric shows how
// strongly the density-variation tail drives yield.
func BenchmarkAblationPitchDistributions(b *testing.B) {
	calibrated, err := yieldlab.CalibratedPitch()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		pitch dist.Continuous
	}{
		{"TruncNormal", calibrated},
		{"Exponential", dist.Exponential{Rate: 0.25}},
		{"Deterministic", dist.Deterministic{V: 4}},
	}
	pf := yieldlab.WorstCorner().PerCNTFailure()
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				m, err := renewal.New(tc.pitch, renewal.WithStep(0.1), renewal.WithMaxWidth(170))
				if err != nil {
					b.Fatal(err)
				}
				pmf, err := m.CountPMF(155)
				if err != nil {
					b.Fatal(err)
				}
				last = pmf.PGF(pf)
			}
			if last > 0 {
				b.ReportMetric(-math.Log10(last), "-log10(pF155)")
			}
		})
	}
}

// BenchmarkAblationRowDP compares the exact run-length DP row-failure
// evaluation against naive Bernoulli Monte Carlo on identical geometry.
// The DP delivers an exact conditional probability in the time the naive
// estimator needs for a handful of coin-flip rounds — and the naive
// estimator cannot resolve 1e-8-scale probabilities at all.
func BenchmarkAblationRowDP(b *testing.B) {
	intervals := make([]rowyield.Interval, 12)
	for i := range intervals {
		lo := i * 5
		intervals[i] = rowyield.Interval{Lo: lo, Hi: lo + 24}
	}
	const nTracks = 90
	const pf = 0.531
	b.Run("ExactDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rowyield.ExactRowFailure(intervals, nTracks, pf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveMC1k", func(b *testing.B) {
		r := rng.New(1)
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

// BenchmarkAblationBands compares the one-band (full correlation benefit,
// some area) and two-band (half benefit, zero area) library transforms.
func BenchmarkAblationBands(b *testing.B) {
	lib, err := celllib.NangateLike45()
	if err != nil {
		b.Fatal(err)
	}
	for _, bands := range []int{1, 2} {
		name := "OneBand"
		if bands == 2 {
			name = "TwoBands"
		}
		b.Run(name, func(b *testing.B) {
			var impacted int
			for i := 0; i < b.N; i++ {
				rep, err := alignactive.AlignLibrary(lib, alignactive.Options{WminNM: 109, Bands: bands})
				if err != nil {
					b.Fatal(err)
				}
				impacted = rep.CellsWithPenalty
			}
			b.ReportMetric(float64(impacted), "cells-penalized")
		})
	}
}

// BenchmarkAblationLengthJitter exercises the paper's deferred extension
// (CNT length variation): correlation between aligned devices 2 µm apart
// under fixed-length vs ±30 % jittered segments.
func BenchmarkAblationLengthJitter(b *testing.B) {
	pitch, err := yieldlab.CalibratedPitch()
	if err != nil {
		b.Fatal(err)
	}
	fet1 := cntgrowth.Rect{X0: 100, Y0: 200, X1: 160, Y1: 260}
	fet2 := cntgrowth.Rect{X0: 2100, Y0: 200, X1: 2160, Y1: 260}
	rm := cntgrowth.Removal{PRemoveMetallic: 1, PRemoveSemi: 0.3}
	for _, tc := range []struct {
		name   string
		jitter float64
	}{
		{"FixedLength", 0},
		{"Jitter30pct", 0.3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := cntgrowth.Directional{
				Pitch: pitch, PMetallic: 0.33,
				LengthNM: 20_000, LengthJitterFrac: tc.jitter,
			}
			var corr float64
			for i := 0; i < b.N; i++ {
				r := rng.Derive(7, uint64(i))
				s, err := cntgrowth.MeasurePairCorrelation(r, g, rm, fet1, fet2, 120)
				if err != nil {
					b.Fatal(err)
				}
				corr = s.CountCorr
			}
			b.ReportMetric(corr, "count-corr")
		})
	}
}

// BenchmarkRenewalSweepCold measures a full cold arrival sweep at the
// paper's default 0.05 nm grid up to 320 nm — the Fig. 2.1-class cost every
// fresh device model pays once before its width cache takes over. This is
// the headline number of the blocked/FFT convolution engine and part of the
// CI bench gate.
func BenchmarkRenewalSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := yieldlab.NewDeviceModelWithRange(yieldlab.WorstCorner(), 0.05, 320)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.FailureProb(320); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceFailureProb measures a single cached pF evaluation — the
// inner-loop cost every chip-level optimization pays.
func BenchmarkDeviceFailureProb(b *testing.B) {
	m, err := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.FailureProb(155); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FailureProb(155); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerParallel measures the concurrent experiment runner on the
// deterministic (non-Monte-Carlo) artifact subset with a warm sweep cache —
// the fixed coordination-plus-compute cost `cnfetyield all` and server jobs
// pay per batch. Part of the CI bench gate.
func BenchmarkRunnerParallel(b *testing.B) {
	r := runner(b)
	names := []string{"fig2.1", "fig2.2a", "fig2.2b", "fig3.2"}
	// Warm shared caches (sweeps, libraries, Wmin solves) outside the timer.
	if _, err := r.RunMany(b.Context(), names, 4); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.RunMany(b.Context(), names, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(names) {
			b.Fatal("missing results")
		}
	}
}

// BenchmarkRowScenarioRound measures one Monte Carlo round of the
// unaligned row scenario (the dominant Table 1 cost).
func BenchmarkRowScenarioRound(b *testing.B) {
	pitch, err := yieldlab.CalibratedPitch()
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]float64, 14)
	probs := make([]float64, 14)
	for i := range offs {
		offs[i], probs[i] = float64(i)*20, 1
	}
	od, err := rowyield.NewOffsetDist(offs, probs)
	if err != nil {
		b.Fatal(err)
	}
	m := &rowyield.RowModel{
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
	st := m.NewRoundState()
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Round(r, rowyield.DirectionalUnaligned, st); err != nil {
			b.Fatal(err)
		}
	}
}

package rowyield

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rng"
)

// testRowModel builds a small, fast row model: short LCNT and narrow
// devices so Monte Carlo means are large enough to verify tightly.
func testRowModel(t *testing.T, widthNM float64, offsets OffsetDist) RowModel {
	t.Helper()
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	return RowModel{
		Pitch:         pitch,
		PerCNTFailure: 0.531,
		WidthNM:       widthNM,
		LCNTNM:        20_000, // 20 µm rows: 36 FETs → fast rounds
		DensityPerUM:  1.8,
		Offsets:       offsets,
	}
}

func analyticPF(t *testing.T, widthNM float64) float64 {
	t.Helper()
	m, err := device.NewCalibratedModel(device.WorstCorner(),
		renewal.WithStep(0.05), renewal.WithMaxWidth(80))
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.FailureProb(widthNM)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRowModelValidate(t *testing.T) {
	good := testRowModel(t, 30, Aligned())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Pitch = nil
	if bad.Validate() == nil {
		t.Error("nil pitch")
	}
	bad = good
	bad.PerCNTFailure = 2
	if bad.Validate() == nil {
		t.Error("pf out of range")
	}
	bad = good
	bad.WidthNM = 0
	if bad.Validate() == nil {
		t.Error("zero width")
	}
	bad = good
	bad.Offsets = OffsetDist{}
	if bad.Validate() == nil {
		t.Error("empty offsets")
	}
}

func TestFETsPerRow(t *testing.T) {
	m := testRowModel(t, 30, Aligned())
	n, err := m.FETsPerRow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 36 {
		t.Fatalf("FETs per row: %d want 36", n)
	}
}

// Aligned scenario must reproduce the analytic device failure probability:
// a fully correlated row fails exactly as often as one device (pRF = pF).
func TestAlignedMatchesDevicePF(t *testing.T) {
	const w = 30.0
	m := testRowModel(t, w, Aligned())
	est, err := m.EstimateRowFailureParallel(context.Background(), 101, DirectionalAligned, 40_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticPF(t, w)
	if math.Abs(est.Mean-want) > 5*est.StdErr+0.02*want {
		t.Fatalf("aligned pRF %v ± %v vs analytic pF %v", est.Mean, est.StdErr, want)
	}
}

// uncorrelatedRound is the independent-window round the closed form is
// checked against: every CNFET draws its own stationary track window, and
// the row fails unless every window keeps a surviving CNT,
// P(fail | counts) = 1 - Π_i (1 - pf^{N_i}).
func uncorrelatedRound(m *RowModel, r *rand.Rand) float64 {
	logSurv := 0.0
	for i := 0; i < m.nFETs; i++ {
		n := 0
		for y := m.fr.Sample(r); y < m.WidthNM; n++ {
			if m.pitch.tab != nil {
				y += m.pitch.tab.Quantile(r.Float64())
			} else {
				y += m.pitch.draw(r)
			}
		}
		pFail := math.Pow(m.PerCNTFailure, float64(n))
		if pFail >= 1 {
			return 1
		}
		logSurv += math.Log1p(-pFail)
	}
	return -math.Expm1(logSurv)
}

// The uncorrelated scenario is served by its closed form 1-(1-pF)^m; an
// independent-window simulation must agree with it.
func TestUncorrelatedMatchesClosedForm(t *testing.T) {
	const w = 30.0
	m := testRowModel(t, w, Aligned())
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	est, err := montecarlo.Run(context.Background(), 20_000, func(r *rand.Rand) (float64, error) {
		return uncorrelatedRound(&m, r), nil
	}, montecarlo.Options{Seed: 103})
	if err != nil {
		t.Fatal(err)
	}
	pF := analyticPF(t, w)
	want, err := IndependentRowFailure(pF, 36)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-want) > 5*est.StdErr+0.03*want {
		t.Fatalf("uncorrelated pRF %v ± %v vs closed form %v", est.Mean, est.StdErr, want)
	}
}

// The Table 1 ordering: uncorrelated (closed form) ≫ unaligned ≫ aligned
// (Monte Carlo), with the aligned benefit equal to the full MRmin factor.
func TestScenarioOrdering(t *testing.T) {
	const w = 30.0
	offsets, err := NewOffsetDist(
		[]float64{0, 60, 120, 180, 240, 300},
		[]float64{0.3, 0.2, 0.15, 0.15, 0.1, 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, w, offsets)
	unc, err := IndependentRowFailure(analyticPF(t, w), 36)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	unalEst, err := m.EstimateRowFailureParallel(ctx, rng.DefaultSeed, DirectionalUnaligned, 30_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	alEst, err := m.EstimateRowFailureParallel(ctx, rng.DefaultSeed, DirectionalAligned, 30_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	unal, al := unalEst.Mean, alEst.Mean
	if !(unc > unal && unal > al) {
		t.Fatalf("ordering violated: %v > %v > %v expected", unc, unal, al)
	}
	// Aligned benefit ≈ MRmin = 36 here (exactly, in the closed forms).
	if ratio := unc / al; ratio < 20 || ratio > 50 {
		t.Fatalf("aligned benefit %v, want ≈ 36", ratio)
	}
	// Unaligned benefit ≈ MRmin / distinct offsets = 36/6 = 6 for
	// non-overlapping offsets (offsets spaced ≥ 2W apart here).
	if ratio := unc / unal; ratio < 3.5 || ratio > 10 {
		t.Fatalf("unaligned benefit %v, want ≈ 6", ratio)
	}
}

// First-order group model: with G well-separated equiprobable offsets all
// occupied, pRF(unaligned) ≈ G·pF.
func TestUnalignedGroupApproximation(t *testing.T) {
	const w = 25.0
	offsets, err := NewOffsetDist(
		[]float64{0, 100, 200}, // 3 groups, spaced 4×W: no overlap
		[]float64{1, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := testRowModel(t, w, offsets)
	est, err := m.EstimateRowFailureParallel(context.Background(), 7, DirectionalUnaligned, 40_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * analyticPF(t, w)
	if math.Abs(est.Mean-want)/want > 0.2 {
		t.Fatalf("group approximation: %v vs %v", est.Mean, want)
	}
}

func TestEstimateErrors(t *testing.T) {
	m := testRowModel(t, 30, Aligned())
	ctx := context.Background()
	if _, err := m.EstimateRowFailureParallel(ctx, 1, DirectionalAligned, 1, 0); err == nil {
		t.Error("too few rounds")
	}
	if _, err := m.EstimateRowFailureParallel(ctx, 1, Scenario(99), 10, 0); err == nil {
		t.Error("unknown scenario")
	}
	if _, err := m.EstimateRowFailureParallel(ctx, 1, UncorrelatedGrowth, 10, 0); err == nil {
		t.Error("uncorrelated scenario has no Monte Carlo round")
	}
	bad := m
	bad.WidthNM = -1
	if _, err := bad.EstimateRowFailureParallel(ctx, 1, DirectionalAligned, 10, 0); err == nil {
		t.Error("invalid model")
	}
}

func TestScenarioString(t *testing.T) {
	for _, s := range []Scenario{UncorrelatedGrowth, DirectionalUnaligned, DirectionalAligned} {
		if s.String() == "" {
			t.Fatal("empty scenario name")
		}
	}
	if Scenario(42).String() == "" {
		t.Fatal("unknown scenario should still print")
	}
}

func TestEstimateRelErr(t *testing.T) {
	e := Estimate{Mean: 2, StdErr: 0.5}
	if e.RelErr() != 0.25 {
		t.Fatal("rel err")
	}
	if !math.IsInf(Estimate{}.RelErr(), 1) {
		t.Fatal("zero mean rel err")
	}
}

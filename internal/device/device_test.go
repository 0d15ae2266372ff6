package device

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rng"
)

// testRand returns the test stream for seed: math/rand/v2's PCG seeded
// with (rng.SplitMix64(seed), 0).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(rng.SplitMix64(seed), 0))
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func testModel(t *testing.T, params FailureParams, maxW float64) *FailureModel {
	t.Helper()
	m, err := NewCalibratedModel(params, renewal.WithStep(0.1), renewal.WithMaxWidth(maxW))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPerCNTFailureEq21(t *testing.T) {
	p := FailureParams{PMetallic: 0.33, PRemoveSemi: 0.30, PRemoveMetallic: 1}
	if got := p.PerCNTFailure(); !almost(got, 0.33+0.67*0.30, 1e-15) {
		t.Fatalf("pf = %v", got)
	}
	clean := FailureParams{PRemoveMetallic: 1}
	if clean.PerCNTFailure() != 0 {
		t.Fatal("perfect process should have pf = 0")
	}
}

func TestValidate(t *testing.T) {
	bad := []FailureParams{
		{PMetallic: -0.1},
		{PMetallic: 1.1},
		{PRemoveSemi: 2},
		{PRemoveMetallic: math.NaN()},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("expected error for %+v", p)
		}
	}
	if err := WorstCorner().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperCorners(t *testing.T) {
	cs := PaperCorners()
	if len(cs) != 3 {
		t.Fatalf("corners: %d", len(cs))
	}
	// Worst first: pf strictly decreasing.
	for i := 1; i < len(cs); i++ {
		if cs[i].Params.PerCNTFailure() >= cs[i-1].Params.PerCNTFailure() {
			t.Fatal("corners not ordered worst-first")
		}
	}
	if cs[2].Params.PerCNTFailure() != 0 {
		t.Fatal("clean corner should have pf = 0")
	}
}

func TestNewFailureModelValidation(t *testing.T) {
	if _, err := NewFailureModel(nil, WorstCorner()); err == nil {
		t.Error("nil count model")
	}
	if _, err := NewCalibratedModel(FailureParams{PMetallic: 2}); err == nil {
		t.Error("invalid params")
	}
}

// The calibration regression: the worst corner must pass through the
// published Fig. 2.1 anchor pF(155 nm) ≈ 3.0e-9 within a factor 1.5, and
// the chip-level construction below must reproduce Wmin ≈ 155 nm.
func TestCalibrationAnchor(t *testing.T) {
	m, err := NewCalibratedModel(WorstCorner(), renewal.WithStep(0.05), renewal.WithMaxWidth(200))
	if err != nil {
		t.Fatal(err)
	}
	p155, err := m.FailureProb(155)
	if err != nil {
		t.Fatal(err)
	}
	if p155 < 3.0e-9/1.5 || p155 > 3.0e-9*1.5 {
		t.Fatalf("pF(155) = %.3e, want ≈ 3.0e-9 (calibration drifted)", p155)
	}
	wmin, err := m.WidthForFailureProb(0.1 / 33e6)
	if err != nil {
		t.Fatal(err)
	}
	if wmin < 150 || wmin > 160 {
		t.Fatalf("Wmin = %.1f, want ≈ 155 (paper case study)", wmin)
	}
}

func TestFailureProbMonotoneInWidth(t *testing.T) {
	m := testModel(t, WorstCorner(), 160)
	prev := 1.1
	for _, w := range []float64{20, 40, 80, 120, 155} {
		p, err := m.FailureProb(w)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("pF not decreasing at W=%v: %v >= %v", w, p, prev)
		}
		prev = p
	}
}

func TestFailureProbsBatch(t *testing.T) {
	m := testModel(t, WorstCorner(), 160)
	ws := []float64{30, 60, 120}
	batch := make([]float64, len(ws))
	if err := m.FailureProbsInto(batch, ws); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		single, err := m.FailureProb(w)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(batch[i], single, 1e-15) {
			t.Fatalf("batch/single mismatch at %v: %v vs %v", w, batch[i], single)
		}
	}
}

func TestCleanCornerOnlyEmptyChannelFails(t *testing.T) {
	m := testModel(t, PaperCorners()[2].Params, 160)
	pmf, err := m.CountModel().CountPMF(40)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.FailureProb(40)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p, pmf.Prob(0), 1e-15) {
		t.Fatalf("pf=0 should reduce to P(N=0): %v vs %v", p, pmf.Prob(0))
	}
}

func TestWidthForFailureProbInverts(t *testing.T) {
	m := testModel(t, WorstCorner(), 200)
	for _, target := range []float64{1e-3, 1e-6, 3.03e-9} {
		w, err := m.WidthForFailureProb(target)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.FailureProb(w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(math.Log(p)-math.Log(target)) > 0.05 {
			t.Fatalf("target %v: W=%v gives pF=%v", target, w, p)
		}
	}
}

func TestWidthForFailureProbErrors(t *testing.T) {
	m := testModel(t, WorstCorner(), 100)
	if _, err := m.WidthForFailureProb(0); err == nil {
		t.Error("target 0")
	}
	if _, err := m.WidthForFailureProb(1); err == nil {
		t.Error("target 1")
	}
	if _, err := m.WidthForFailureProb(1e-30); err == nil {
		t.Error("unreachable target within 100nm should error")
	}
}

// Monte Carlo cross-check of Eq. 2.2 at a small width where failures are
// common: simulate pitch draws and per-CNT coin flips directly.
func TestFailureProbMatchesDirectMC(t *testing.T) {
	params := WorstCorner()
	m := testModel(t, params, 60)
	const w = 14.0
	want, err := m.FailureProb(w)
	if err != nil {
		t.Fatal(err)
	}
	pitch, err := CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	pf := params.PerCNTFailure()
	r := testRand(31)
	const trials = 120_000
	fails := 0
	for i := 0; i < trials; i++ {
		// Equilibrium window start via burn-in.
		x := 0.0
		for j := 0; j < 60; j++ {
			x += pitch.Sample(r)
		}
		origin := x + r.Float64()*16
		for x < origin {
			x += pitch.Sample(r)
		}
		ok := false
		for x < origin+w {
			if r.Float64() >= pf {
				ok = true
			}
			x += pitch.Sample(r)
		}
		if !ok {
			fails++
		}
	}
	got := float64(fails) / trials
	se := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 5*se+0.002 {
		t.Fatalf("MC pF(%v) = %v, analytic %v (se %v)", w, got, want, se)
	}
}

func TestQuickFailureProbMonotoneInPf(t *testing.T) {
	pitch, err := CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	count, err := renewal.New(pitch, renewal.WithStep(0.1), renewal.WithMaxWidth(120))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seedRaw uint16) bool {
		r := testRand(uint64(seedRaw))
		w := 10 + r.Float64()*100
		pm1 := r.Float64() * 0.5
		pm2 := pm1 + r.Float64()*(0.5-pm1)*0.9
		m1, err1 := NewFailureModel(count, FailureParams{PMetallic: pm1, PRemoveSemi: 0.2, PRemoveMetallic: 1})
		m2, err2 := NewFailureModel(count, FailureParams{PMetallic: pm2, PRemoveSemi: 0.2, PRemoveMetallic: 1})
		if err1 != nil || err2 != nil {
			return false
		}
		p1, e1 := m1.FailureProb(w)
		p2, e2 := m2.FailureProb(w)
		if e1 != nil || e2 != nil {
			return false
		}
		return p1 <= p2+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFailureProbMatchesCountPGF checks that the memoized pF carries the
// exact bits of the count PMF's PGF at pf, for random widths and for
// widths on and half a cell either side of grid points, with probes
// repeated so later ones are served from the memo; out-of-range widths
// fail with the count model's own errors.
func TestFailureProbMatchesCountPGF(t *testing.T) {
	m := testModel(t, WorstCorner(), 120)
	count := m.CountModel()
	step := count.Step()
	r := rand.New(rand.NewPCG(7, 0))
	var ws []float64
	for i := 0; i < 200; i++ {
		ws = append(ws, step+r.Float64()*(count.MaxWidth()-step))
	}
	for _, i := range []float64{1, 2, 17, 1031, 1199} {
		ws = append(ws, i*step, (i-0.5)*step, (i+0.5)*step)
	}
	ws = append(ws, ws...)
	for _, w := range ws {
		got, err := m.FailureProb(w)
		if err != nil {
			t.Fatalf("w=%g: %v", w, err)
		}
		pmf, err := count.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := pmf.PGF(m.PerCNTFailure()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pF(%g) = %v, PGF of the count PMF = %v", w, got, want)
		}
	}
	batch := make([]float64, len(ws))
	if err := m.FailureProbsInto(batch, ws); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		want, _ := m.FailureProb(w)
		if math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("FailureProbsInto[%d] (w=%g) = %v, FailureProb = %v", i, w, batch[i], want)
		}
	}
	for _, w := range []float64{0, -1, math.NaN(), count.MaxWidth() + step} {
		_, errMemo := m.FailureProb(w)
		_, errCount := count.CountPMF(w)
		if errMemo == nil || errCount == nil || errMemo.Error() != errCount.Error() {
			t.Fatalf("w=%g: FailureProb error %v, CountPMF error %v", w, errMemo, errCount)
		}
		if err := m.FailureProbsInto(make([]float64, 2), []float64{50, w}); err == nil || err.Error() != errCount.Error() {
			t.Fatalf("w=%g: FailureProbsInto error %v, want %v", w, err, errCount)
		}
	}
}

// TestCalibratedPitchFrozen checks the calibrated law is solved once: later
// calls return the same law without allocating.
func TestCalibratedPitchFrozen(t *testing.T) {
	first, err := CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.TruncNormalWithMean(MeanPitchNM, PitchSigmaRatio*MeanPitchNM, PitchMinNM)
	if err != nil {
		t.Fatal(err)
	}
	if first != want {
		t.Fatalf("frozen law %+v, fresh solve %+v", first, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = CalibratedPitch() }); allocs != 0 {
		t.Fatalf("CalibratedPitch allocates %v per call", allocs)
	}
}

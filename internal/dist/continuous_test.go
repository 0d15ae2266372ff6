package dist

import (
	"math"
	"testing"

	"github.com/cnfet/yieldlab/internal/numeric"
	"github.com/cnfet/yieldlab/internal/stat"
)

func TestExponentialBasics(t *testing.T) {
	e := Exponential{Rate: 0.25}
	if e.Mean() != 4 || e.StdDev() != 4 {
		t.Fatal("moments")
	}
	if e.CDF(-1) != 0 || !almost(e.CDF(4), 1-math.Exp(-1), 1e-15) {
		t.Fatal("CDF")
	}
	if !almost(e.Quantile(e.CDF(7)), 7, 1e-12) {
		t.Fatal("quantile roundtrip")
	}
	// Closed-form integrated survival vs Simpson quadrature.
	for _, x := range []float64{0.5, 3, 20} {
		want := numeric.Simpson(func(u float64) float64 { return 1 - e.CDF(u) }, 0, x, 2000)
		if got := e.IntegratedSurvival(x); !almost(got, want, 1e-9) {
			t.Errorf("I(%v) = %v want %v", x, got, want)
		}
	}
	r := testRand(3)
	var w stat.Welford
	for i := 0; i < 100_000; i++ {
		w.Add(e.Sample(r))
	}
	if !almost(w.Mean(), 4, 0.06) {
		t.Errorf("sample mean %v", w.Mean())
	}
}

func TestDeterministicBasics(t *testing.T) {
	d := Deterministic{V: 4}
	if d.Mean() != 4 || d.StdDev() != 0 {
		t.Fatal("moments")
	}
	if d.CDF(3.999) != 0 || d.CDF(4) != 1 {
		t.Fatal("CDF step")
	}
	if d.Quantile(0.3) != 4 || d.Sample(testRand(1)) != 4 {
		t.Fatal("quantile/sample")
	}
	// Uniform equilibrium first arrival: I(x) = min(x, V).
	if d.IntegratedSurvival(-1) != 0 || d.IntegratedSurvival(2) != 2 || d.IntegratedSurvival(9) != 4 {
		t.Fatal("integrated survival")
	}
}

func TestNewTruncNormalValidation(t *testing.T) {
	if _, err := NewTruncNormal(0, -1, 0, 1); err == nil {
		t.Error("negative sigma")
	}
	if _, err := NewTruncNormal(0, 1, 2, 2); err == nil {
		t.Error("empty interval")
	}
	if _, err := NewTruncNormal(0, 1, 50, 60); err == nil {
		t.Error("interval with no parent mass")
	}
	if _, err := TruncNormalWithMean(4, 0, 0); err == nil {
		t.Error("zero sd")
	}
	if _, err := TruncNormalWithMean(1, 3, 2); err == nil {
		t.Error("mean below lower bound")
	}
}

// Post-truncation moments must match direct quadrature over the truncated
// density, across mild and severe truncation.
func TestTruncNormalMomentsMatchQuadrature(t *testing.T) {
	cases := []struct {
		mu, sigma, lower, upper float64
	}{
		{1.5, 0.3, 0.6, math.Inf(1)}, // diameter law: mild truncation
		{-13, 9.2, 0, math.Inf(1)},   // pitch-like: severe truncation
		{2, 1, 0, 4},                 // two-sided
	}
	for _, tc := range cases {
		tn, err := NewTruncNormal(tc.mu, tc.sigma, tc.lower, tc.upper)
		if err != nil {
			t.Fatal(err)
		}
		hi := tc.upper
		if math.IsInf(hi, 1) {
			hi = tc.mu + 14*tc.sigma
		}
		z := numeric.NormalCDF((hi-tc.mu)/tc.sigma) - numeric.NormalCDF((tc.lower-tc.mu)/tc.sigma)
		density := func(x float64) float64 {
			return numeric.NormalPDF((x-tc.mu)/tc.sigma) / (tc.sigma * z)
		}
		const cells = 4000
		mass, mean, m2 := 0.0, 0.0, 0.0
		mass = numeric.Simpson(density, tc.lower, hi, cells)
		mean = numeric.Simpson(func(x float64) float64 { return x * density(x) }, tc.lower, hi, cells)
		m2 = numeric.Simpson(func(x float64) float64 { return x * x * density(x) }, tc.lower, hi, cells)
		if !almost(mass, 1, 1e-9) {
			t.Fatalf("quadrature mass %v", mass)
		}
		sd := math.Sqrt(m2 - mean*mean)
		if !almost(tn.Mean(), mean, 1e-6*(math.Abs(mean)+1)) {
			t.Errorf("%+v: mean %v vs quadrature %v", tc, tn.Mean(), mean)
		}
		if !almost(tn.StdDev(), sd, 1e-6*(sd+1)) {
			t.Errorf("%+v: sd %v vs quadrature %v", tc, tn.StdDev(), sd)
		}
	}
}

func TestTruncNormalCDFQuantileRoundtrip(t *testing.T) {
	tn, err := NewTruncNormal(-13, 9.2, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if tn.CDF(-0.1) != 0 || tn.CDF(0) != 0 {
		t.Error("CDF below support")
	}
	for _, p := range []float64{1e-9, 0.01, 0.3, 0.7, 0.99, 1 - 1e-9} {
		x := tn.Quantile(p)
		if got := tn.CDF(x); !almost(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if tn.Quantile(0) != 0 || !math.IsInf(tn.Quantile(1), 1) {
		t.Error("quantile edges")
	}
	two, _ := NewTruncNormal(2, 1, 0, 4)
	if two.Quantile(1) != 4 || two.CDF(5) != 1 {
		t.Error("two-sided edges")
	}
}

// The calibrated parameterization: post-truncation mean hits the target and
// the frozen pitch law reproduces the documented σS/μS ≈ 0.88 ratio.
func TestTruncNormalWithMeanHitsTarget(t *testing.T) {
	for _, tc := range []struct{ mean, sd, lower float64 }{
		{4, 9.2, 0}, {4, 3, 1}, {4, 2.5, 1}, {1.5, 5, 1}, {10, 0.5, 0},
	} {
		tn, err := TruncNormalWithMean(tc.mean, tc.sd, tc.lower)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(tn.Mean(), tc.mean, 1e-8*tc.mean) {
			t.Errorf("%+v: mean %v", tc, tn.Mean())
		}
		if tn.Sigma != tc.sd || tn.Lower != tc.lower {
			t.Errorf("%+v: parent params drifted: %+v", tc, tn)
		}
	}
	pitch, err := TruncNormalWithMean(4, 2.3*4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := pitch.StdDev() / pitch.Mean(); ratio < 0.83 || ratio > 0.93 {
		t.Errorf("calibrated pitch σS/μS = %v, documented ≈ 0.88", ratio)
	}
}

func TestTruncNormalIntegratedSurvivalMatchesQuadrature(t *testing.T) {
	for _, tn := range []struct{ mean, sd, lower float64 }{
		{4, 9.2, 0}, {4, 3, 1},
	} {
		d, err := TruncNormalWithMean(tn.mean, tn.sd, tn.lower)
		if err != nil {
			t.Fatal(err)
		}
		surv := func(x float64) float64 {
			if x < 0 {
				return 1
			}
			return 1 - d.CDF(x)
		}
		for _, x := range []float64{0.3, d.Lower, 2, 8, 40, 120} {
			want := numeric.Simpson(surv, 0, x, 4000)
			if got := d.IntegratedSurvival(x); !almost(got, want, 1e-7*(x+1)) {
				t.Errorf("mean=%v sd=%v: I(%v) = %v want %v", tn.mean, tn.sd, x, got, want)
			}
		}
		// I(∞)/μ = 1: the equilibrium distribution normalizes.
		far := d.Mean() + 14*d.StdDev()
		if got := d.IntegratedSurvival(far) / d.Mean(); !almost(got, 1, 1e-9) {
			t.Errorf("I(∞)/μ = %v", got)
		}
	}
}

// Deep truncation (α ≫ 1) is where a CDF-side antiderivative cancels to
// I(x) = x; the survival-side closed form must keep matching quadrature and
// saturate at the post-truncation mean.
func TestTruncNormalIntegratedSurvivalDeepTruncation(t *testing.T) {
	tn, err := NewTruncNormal(0, 1, 9, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	surv := func(x float64) float64 {
		if x < 0 {
			return 1
		}
		return 1 - tn.CDF(x)
	}
	for _, x := range []float64{9.02, 9.2, 10, 15} {
		want := numeric.Simpson(surv, 0, x, 8000)
		got := tn.IntegratedSurvival(x)
		if !almost(got, want, 1e-6*want) {
			t.Errorf("I(%v) = %v want %v", x, got, want)
		}
		if x > 9.5 && got >= x-0.5 {
			t.Errorf("I(%v) = %v did not saturate (cancellation regression)", x, got)
		}
	}
	if got := tn.IntegratedSurvival(30); !almost(got, tn.Mean(), 1e-9*tn.Mean()) {
		t.Errorf("I(∞) = %v want mean %v", got, tn.Mean())
	}
	// The asymptotic branch of the helper agrees with the direct form at
	// the switchover.
	lo, hi := normalSurvivalIntegral(19.999999), normalSurvivalIntegral(20.000001)
	if math.Abs(lo-hi)/lo > 1e-4 {
		t.Errorf("survival-integral branch mismatch at u=20: %v vs %v", lo, hi)
	}
}

func TestTruncNormalSampleMatchesMoments(t *testing.T) {
	tn, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand(9)
	var w stat.Welford
	lo := math.Inf(1)
	for i := 0; i < 200_000; i++ {
		x := tn.Sample(r)
		if x < lo {
			lo = x
		}
		w.Add(x)
	}
	if lo < 0 {
		t.Fatalf("sample below truncation bound: %v", lo)
	}
	if !almost(w.Mean(), tn.Mean(), 0.05) {
		t.Errorf("sample mean %v vs %v", w.Mean(), tn.Mean())
	}
	if !almost(w.StdDev(), tn.StdDev(), 0.05) {
		t.Errorf("sample sd %v vs %v", w.StdDev(), tn.StdDev())
	}
}

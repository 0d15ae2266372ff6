package dist

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/cnfet/yieldlab/internal/numeric"
)

// TruncNormal is a normal distribution restricted to [Lower, Upper]. The
// calibrated inter-CNT pitch law of the paper is a truncated normal on
// [0, ∞); see device.CalibratedPitch.
//
// The struct stores the parent (pre-truncation) parameters plus moments
// precomputed at construction, so all methods are cheap and the value can be
// copied and shared freely.
type TruncNormal struct {
	// Mu and Sigma are the parent normal's location and scale.
	Mu, Sigma float64
	// Lower and Upper are the truncation bounds (Upper may be +Inf).
	Lower, Upper float64

	alpha, beta float64 // standardized bounds
	z           float64 // parent mass in [Lower, Upper]
	sfAlpha     float64 // parent survival at alpha
	sfBeta      float64 // parent survival at beta
	mean, sd    float64 // post-truncation moments
}

// NewTruncNormal builds a normal(mu, sigma) truncated to [lower, upper].
// Upper may be +Inf. The truncation interval must carry non-negligible
// parent mass.
func NewTruncNormal(mu, sigma, lower, upper float64) (TruncNormal, error) {
	if !(sigma > 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return TruncNormal{}, fmt.Errorf("dist: truncated normal sigma %g must be positive and finite", sigma)
	}
	if !(lower < upper) || math.IsNaN(lower) {
		return TruncNormal{}, fmt.Errorf("dist: truncation bounds [%g, %g] invalid", lower, upper)
	}
	t := TruncNormal{Mu: mu, Sigma: sigma, Lower: lower, Upper: upper}
	t.alpha = (lower - mu) / sigma
	t.beta = math.Inf(1)
	if !math.IsInf(upper, 1) {
		t.beta = (upper - mu) / sigma
	}
	t.sfAlpha = numeric.NormalSF(t.alpha)
	t.sfBeta = numeric.NormalSF(t.beta)
	t.z = t.sfAlpha - t.sfBeta
	if !(t.z > 1e-300) {
		return TruncNormal{}, fmt.Errorf("dist: truncation interval [%g, %g] carries no parent mass", lower, upper)
	}
	phiAlpha := numeric.NormalPDF(t.alpha)
	phiBeta := numeric.NormalPDF(t.beta)
	if math.IsInf(t.beta, 1) {
		phiBeta = 0
	}
	ratio := (phiAlpha - phiBeta) / t.z
	t.mean = mu + sigma*ratio
	aTerm := t.alpha * phiAlpha
	if math.IsInf(t.alpha, -1) {
		aTerm = 0
	}
	bTerm := t.beta * phiBeta
	if math.IsInf(t.beta, 1) {
		bTerm = 0
	}
	variance := sigma * sigma * (1 + (aTerm-bTerm)/t.z - ratio*ratio)
	t.sd = math.Sqrt(math.Max(variance, 0))
	return t, nil
}

// TruncNormalWithMean builds the calibrated pitch-style law: a normal with
// parent standard deviation sd truncated to [lower, ∞), with the parent
// location solved so the post-truncation mean equals mean. This is the
// parameterization the paper's 4 nm-pitch law is frozen in (post-truncation
// mean 4 nm, parent sigma given by the calibrated σ/μ ratio).
func TruncNormalWithMean(mean, sd, lower float64) (TruncNormal, error) {
	if !(sd > 0) || math.IsNaN(sd) || math.IsInf(sd, 0) {
		return TruncNormal{}, fmt.Errorf("dist: parent sigma %g must be positive and finite", sd)
	}
	if !(mean > lower) || math.IsNaN(mean) || math.IsNaN(lower) {
		return TruncNormal{}, fmt.Errorf("dist: target mean %g must exceed lower bound %g", mean, lower)
	}
	// The post-truncation mean m + sd·h((lower-m)/sd) is strictly increasing
	// in the parent location m and exceeds the target at m = mean, so walk
	// the lower bracket out geometrically and bisect.
	f := func(m float64) float64 {
		return m + sd*normalHazard((lower-m)/sd) - mean
	}
	hi := mean
	lo := mean - sd
	step := sd
	for i := 0; f(lo) >= 0; i++ {
		if i > 80 {
			return TruncNormal{}, fmt.Errorf("dist: cannot bracket parent location for mean %g, sd %g, lower %g", mean, sd, lower)
		}
		step *= 2
		lo -= step
	}
	mu, err := numeric.Bisect(f, lo, hi, 1e-10*sd, 400)
	if err != nil {
		return TruncNormal{}, fmt.Errorf("dist: solving parent location: %w", err)
	}
	return NewTruncNormal(mu, sd, lower, math.Inf(1))
}

// normalHazard returns φ(x)/(1-Φ(x)), the standard normal hazard rate,
// stable for arbitrarily large x (where the direct ratio is 0/0).
func normalHazard(x float64) float64 {
	if x > 30 {
		// Asymptotic Mills ratio: h(x) = x + 1/x - 2/x³ + O(x⁻⁵).
		return x + 1/x - 2/(x*x*x)
	}
	return numeric.NormalPDF(x) / numeric.NormalSF(x)
}

// Mean returns the post-truncation expectation.
func (t TruncNormal) Mean() float64 { return t.mean }

// StdDev returns the post-truncation standard deviation.
func (t TruncNormal) StdDev() float64 { return t.sd }

// CDF returns the truncated cumulative distribution at x.
func (t TruncNormal) CDF(x float64) float64 {
	if x <= t.Lower {
		return 0
	}
	if x >= t.Upper {
		return 1
	}
	xi := (x - t.Mu) / t.Sigma
	// (Φ(ξ)-Φ(α))/Z computed as survival differences: accurate when the
	// truncation point sits deep in the parent's upper tail.
	c := (t.sfAlpha - numeric.NormalSF(xi)) / t.z
	return numeric.Clamp(c, 0, 1)
}

// Quantile returns the truncated quantile at p in [0, 1].
func (t TruncNormal) Quantile(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return t.Lower
	case p >= 1:
		return t.Upper
	}
	// Target parent survival: (1-p)·SF(α) + p·SF(β), inverted through
	// whichever tail keeps full precision.
	sf := (1-p)*t.sfAlpha + p*t.sfBeta
	var xi float64
	if sf <= 0.5 {
		xi = -numeric.NormalQuantile(sf)
	} else {
		xi = numeric.NormalQuantile(1 - sf)
	}
	x := t.Mu + t.Sigma*xi
	return numeric.Clamp(x, t.Lower, t.Upper)
}

// Sample draws one truncated-normal variate by inverse transform, which
// stays exact however deep the truncation cuts into the parent.
func (t TruncNormal) Sample(r *rand.Rand) float64 {
	return t.Quantile(r.Float64())
}

// IntegratedSurvival returns ∫₀ˣ(1-F(t)) dt in closed form. The truncated
// survival is S(t) = (SF(ξ(t)) - SF(β))/Z, so the integral is expressed
// entirely through the parent's integrated survival ∫ᵤ^∞ SF — small numbers
// divided by the small truncation mass Z — which stays fully accurate
// however deep the truncation cuts into the parent's upper tail (where the
// CDF-side antiderivative cancels catastrophically).
func (t TruncNormal) IntegratedSurvival(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Below the lower bound the survival is 1.
	lo := math.Max(t.Lower, 0)
	if x <= lo {
		return x
	}
	// Beyond the upper bound the survival is 0.
	hi := math.Min(x, t.Upper)
	xiLo := (lo - t.Mu) / t.Sigma
	xiHi := (hi - t.Mu) / t.Sigma
	sfInt := t.Sigma * (normalSurvivalIntegral(xiLo) - normalSurvivalIntegral(xiHi))
	acc := lo + (sfInt-(hi-lo)*t.sfBeta)/t.z
	return numeric.Clamp(acc, 0, x)
}

// normalSurvivalIntegral returns ∫ᵤ^∞ (1-Φ(v)) dv = φ(u) - u·(1-Φ(u)),
// switching to the asymptotic tail expansion where the direct form loses
// all precision to cancellation.
func normalSurvivalIntegral(u float64) float64 {
	if u > 20 {
		// φ(u)·(u⁻² - 3u⁻⁴ + 15u⁻⁶): relative error below 1e-6 at u = 20.
		u2 := u * u
		return numeric.NormalPDF(u) * (1 - 3/u2 + 15/(u2*u2)) / u2
	}
	return numeric.NormalPDF(u) - u*numeric.NormalSF(u)
}

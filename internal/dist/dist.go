// Package dist provides the probability distributions the yield models are
// built from: continuous spacing laws for the inter-CNT pitch process and
// discrete count distributions (PMFs) for the number of CNTs in a CNFET
// channel.
//
// Continuous laws implement the Continuous interface; the renewal count
// engine (package renewal) consumes them through CDF evaluations, while the
// Monte Carlo scenario samplers draw from them with Sample. Laws that know a
// closed form for the integrated survival function ∫₀ˣ(1-F) additionally
// implement SurvivalIntegrator, which gives the renewal engine and the
// stationary ForwardRecurrence sampler an exact fast path for the
// equilibrium first-arrival distribution (1-F(x))/μ.
//
// All types are immutable after construction and safe for concurrent use;
// randomness always comes from an explicit *rand.Rand (see package rng).
//
//yield:compute
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Continuous is a one-dimensional continuous probability distribution on
// (a subset of) the real line. The pitch laws used in this repository are
// supported on [0, ∞).
type Continuous interface {
	// Mean returns the expectation.
	Mean() float64
	// StdDev returns the standard deviation.
	StdDev() float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) ≥ p, for p in [0, 1].
	Quantile(p float64) float64
	// Sample draws one variate using the given generator.
	Sample(r *rand.Rand) float64
}

// SurvivalIntegrator is implemented by distributions with a closed form for
// the integrated survival function
//
//	I(x) = ∫₀ˣ (1 - F(t)) dt .
//
// I(x)/μ is the CDF of the stationary forward-recurrence (equilibrium
// first-arrival) distribution, so an exact I avoids per-cell quadrature in
// the renewal engine and the ForwardRecurrence sampler.
type SurvivalIntegrator interface {
	// IntegratedSurvival returns ∫₀ˣ (1-F(t)) dt for x ≥ 0 (0 for x < 0).
	IntegratedSurvival(x float64) float64
}

// Exponential is the memoryless spacing law with the given rate (mean 1/Rate).
// A renewal process with exponential pitch is a Poisson process, which the
// tests use as an analytic cross-check for the count engine.
type Exponential struct {
	// Rate is the inverse mean (λ), must be positive.
	Rate float64
}

// Mean returns 1/λ.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// StdDev returns 1/λ.
func (e Exponential) StdDev() float64 { return 1 / e.Rate }

// CDF returns 1 - e^{-λx} for x ≥ 0.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Quantile returns -ln(1-p)/λ.
func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Log1p(-p) / e.Rate
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// IntegratedSurvival returns (1 - e^{-λx})/λ.
func (e Exponential) IntegratedSurvival(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate*x) / e.Rate
}

// Deterministic is the degenerate law concentrated at V: the idealized
// perfectly regular pitch used as an ablation baseline.
type Deterministic struct {
	// V is the single support point, must be positive for pitch laws.
	V float64
}

// Mean returns V.
func (d Deterministic) Mean() float64 { return d.V }

// StdDev returns 0.
func (d Deterministic) StdDev() float64 { return 0 }

// CDF is the unit step at V.
func (d Deterministic) CDF(x float64) float64 {
	if x >= d.V {
		return 1
	}
	return 0
}

// Quantile returns V for every p in (0, 1].
func (d Deterministic) Quantile(p float64) float64 { return d.V }

// Sample returns V.
func (d Deterministic) Sample(r *rand.Rand) float64 { return d.V }

// IntegratedSurvival returns min(x, V): the equilibrium first arrival of a
// deterministic pitch is uniform on [0, V].
func (d Deterministic) IntegratedSurvival(x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= d.V:
		return d.V
	}
	return x
}

// validateProb reports an error when p is not a probability.
func validateProb(name string, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("dist: %s = %g out of [0,1]", name, p)
	}
	return nil
}

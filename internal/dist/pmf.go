package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// PMF is a probability mass function over the non-negative integers
// 0, 1, …, Len()-1. P[k] is the probability of k. The total mass may fall
// short of 1 by a truncation tolerance (the renewal engine trims numerically
// dead tails); moments treat the stored masses as-is.
//
// The zero value is an empty (invalid) PMF. Copies share the underlying
// slice, which callers must treat as read-only.
type PMF struct {
	// P holds the probability masses, starting at count 0.
	P []float64
}

// NewPMF validates masses (finite, non-negative, total in (0, 1+ε]) and
// wraps them without copying.
func NewPMF(p []float64) (PMF, error) {
	if len(p) == 0 {
		return PMF{}, errors.New("dist: empty PMF")
	}
	total := 0.0
	for k, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return PMF{}, fmt.Errorf("dist: PMF mass %g at count %d invalid", v, k)
		}
		total += v
	}
	if !(total > 0) {
		return PMF{}, errors.New("dist: PMF carries no mass")
	}
	if total > 1+1e-9 {
		return PMF{}, fmt.Errorf("dist: PMF total mass %g exceeds 1", total)
	}
	return PMF{P: p}, nil
}

// PointPMF returns the degenerate distribution concentrated at k.
func PointPMF(k int) (PMF, error) {
	if k < 0 {
		return PMF{}, fmt.Errorf("dist: point mass at negative count %d", k)
	}
	p := make([]float64, k+1)
	p[k] = 1
	return PMF{P: p}, nil
}

// PoissonPMF returns the Poisson(lambda) distribution truncated once the
// upper-tail mass drops below tol. A renewal process with Exponential pitch
// produces exactly these counts, which the renewal tests exploit.
func PoissonPMF(lambda, tol float64) (PMF, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return PMF{}, fmt.Errorf("dist: Poisson mean %g invalid", lambda)
	}
	if !(tol > 0) || tol >= 1 {
		return PMF{}, fmt.Errorf("dist: tail tolerance %g out of (0,1)", tol)
	}
	if lambda == 0 {
		return PointPMF(0)
	}
	logLambda := math.Log(lambda)
	var p []float64
	for k := 0; ; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		mass := math.Exp(-lambda + float64(k)*logLambda - lg)
		p = append(p, mass)
		// Beyond the mode the terms decay geometrically with ratio λ/(k+1),
		// so the remaining tail is below mass/(1-λ/(k+1)) ≤ 2·mass once
		// k+1 ≥ 2λ; stop when that bound clears tol.
		if float64(k+1) >= 2*lambda && 2*mass < tol {
			break
		}
		if k > 1<<20 {
			return PMF{}, fmt.Errorf("dist: Poisson(%g) support did not close under tol %g", lambda, tol)
		}
	}
	return PMF{P: p}, nil
}

// BinomialPMF returns the Binomial(n, q) distribution on 0..n.
func BinomialPMF(n int, q float64) (PMF, error) {
	if n < 0 {
		return PMF{}, fmt.Errorf("dist: binomial trials %d negative", n)
	}
	if err := validateProb("binomial success probability", q); err != nil {
		return PMF{}, err
	}
	p := make([]float64, n+1)
	switch {
	case q == 0:
		p[0] = 1
	case q == 1:
		p[n] = 1
	default:
		logQ, logNotQ := math.Log(q), math.Log1p(-q)
		lgN, _ := math.Lgamma(float64(n + 1))
		for k := 0; k <= n; k++ {
			lgK, _ := math.Lgamma(float64(k + 1))
			lgNK, _ := math.Lgamma(float64(n - k + 1))
			p[k] = math.Exp(lgN - lgK - lgNK + float64(k)*logQ + float64(n-k)*logNotQ)
		}
	}
	return PMF{P: p}, nil
}

// Len returns the support size (largest represented count plus one).
func (p PMF) Len() int { return len(p.P) }

// Prob returns P(X = k), zero outside the represented support.
func (p PMF) Prob(k int) float64 {
	if k < 0 || k >= len(p.P) {
		return 0
	}
	return p.P[k]
}

// TotalMass returns the sum of all stored masses.
func (p PMF) TotalMass() float64 {
	total := 0.0
	for _, v := range p.P {
		total += v
	}
	return total
}

// Mean returns Σ k·P[k].
func (p PMF) Mean() float64 {
	m := 0.0
	for k, v := range p.P {
		m += float64(k) * v
	}
	return m
}

// Variance returns Σ k²·P[k] - Mean².
func (p PMF) Variance() float64 {
	var m, m2 float64
	for k, v := range p.P {
		f := float64(k)
		m += f * v
		m2 += f * f * v
	}
	return math.Max(m2-m*m, 0)
}

// StdDev returns the standard deviation.
func (p PMF) StdDev() float64 { return math.Sqrt(p.Variance()) }

// CDF returns P(X ≤ k).
func (p PMF) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(p.P) {
		k = len(p.P) - 1
	}
	total := 0.0
	for _, v := range p.P[:k+1] {
		total += v
	}
	return total
}

// PGF evaluates the probability generating function Σ P[k]·zᵏ by Horner's
// rule. At z = pf this is exactly the device failure probability of Eq. 2.2.
func (p PMF) PGF(z float64) float64 {
	acc := 0.0
	for k := len(p.P) - 1; k >= 0; k-- {
		acc = acc*z + p.P[k]
	}
	return acc
}

// Sample draws one count by inverse transform. Residual truncated tail mass
// is assigned to the largest represented count.
func (p PMF) Sample(r *rand.Rand) int {
	u := r.Float64()
	acc := 0.0
	for k, v := range p.P {
		acc += v
		if u < acc {
			return k
		}
	}
	return len(p.P) - 1
}

package dist

import (
	"errors"
	"fmt"
	"math"
)

// PMF is a probability mass function over the non-negative integers
// 0, 1, …, Len()-1. P[k] is the probability of k. The total mass may fall
// short of 1 by a truncation tolerance (the renewal engine trims numerically
// dead tails); PGF treats the stored masses as-is.
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

// Len returns the support size (largest represented count plus one).
func (p PMF) Len() int { return len(p.P) }

// Prob returns P(X = k), zero outside the represented support.
func (p PMF) Prob(k int) float64 {
	if k < 0 || k >= len(p.P) {
		return 0
	}
	return p.P[k]
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

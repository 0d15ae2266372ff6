// Package numeric supplies the small set of numerical routines the yield
// models need and that the Go standard library does not provide: bracketing
// root finders, Simpson quadrature, monotone linear interpolation, stable
// log-space accumulation and the normal distribution special functions.
//
// The implementations favour robustness over raw speed; every routine is
// deterministic and allocation-light so it can sit inside Monte Carlo inner
// loops and testing/quick properties.
//
//yield:compute
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned by root finders when f(lo) and f(hi) do not
// straddle zero.
var ErrNoBracket = errors.New("numeric: root is not bracketed")

// ErrMaxIter is returned when an iterative routine fails to converge within
// its iteration budget.
var ErrMaxIter = errors.New("numeric: maximum iterations exceeded")

// Bisect finds x in [lo, hi] with f(x) = 0 for a continuous f whose sign
// differs at the endpoints. It converges unconditionally and is the fallback
// used throughout the repository for monotone inversions (width from failure
// probability, truncated-normal location from target mean, ...).
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for i := 0; i < maxIter; i++ {
		mid := 0.5 * (lo + hi)
		if hi-lo <= tol || mid == lo || mid == hi {
			return mid, nil
		}
		fmid := f(mid)
		if fmid == 0 {
			return mid, nil
		}
		if math.Signbit(fmid) == math.Signbit(flo) {
			lo, flo = mid, fmid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), ErrMaxIter
}

// Simpson integrates f over [a, b] with n panels (n is rounded up to even).
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 != 0 {
		n++
	}
	h := (b - a) / float64(n)
	var odd, even Kahan
	for i := 1; i < n; i += 2 {
		odd.Add(f(a + float64(i)*h))
	}
	for i := 2; i < n; i += 2 {
		even.Add(f(a + float64(i)*h))
	}
	return h / 3 * (f(a) + f(b) + 4*odd.Sum() + 2*even.Sum())
}

// Kahan is a compensated accumulator. The zero value is ready to use.
type Kahan struct {
	sum float64
	c   float64
}

// Add accumulates x with Kahan–Babuška compensation.
func (k *Kahan) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	var k Kahan
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// LogSumExp returns log(Σ exp(xi)) without overflow. It returns -Inf for an
// empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var k Kahan
	for _, x := range xs {
		k.Add(math.Exp(x - m))
	}
	return m + math.Log(k.Sum())
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}

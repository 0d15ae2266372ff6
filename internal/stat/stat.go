// Package stat provides the descriptive statistics used by the growth
// simulators, the Monte Carlo engine and the experiment reports: moments,
// correlation, online (Welford) accumulation and histograms.
//
//yield:compute
package stat

import (
	"math"

	"github.com/cnfet/yieldlab/internal/numeric"
)

// Mean returns the arithmetic mean of xs (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return numeric.SumSlice(xs) / float64(len(xs))
}

// Corr returns the Pearson correlation coefficient between xs and ys.
// It returns NaN when either sample is constant or the lengths differ.
func Corr(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy numeric.Kahan
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy.Add(dx * dy)
		sxx.Add(dx * dx)
		syy.Add(dy * dy)
	}
	den := math.Sqrt(sxx.Sum() * syy.Sum())
	if den == 0 {
		return math.NaN()
	}
	return sxy.Sum() / den
}

// Welford accumulates count, mean and variance online in a single pass.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance (NaN for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the running mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Merge combines another accumulator into w (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

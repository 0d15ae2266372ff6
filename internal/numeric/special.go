package numeric

import "math"

// NormalPDF returns the standard normal density at x.
func NormalPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormalCDF returns the standard normal cumulative distribution at x,
// computed through erfc for accuracy in both tails.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalSF returns the standard normal survival function 1 - Φ(x) with full
// relative accuracy in the upper tail.
func NormalSF(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) using Acklam's rational approximation
// followed by one Halley refinement step, accurate to ~1e-15 over (0,1).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley step: drives the approximation to near machine precision.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(0.5*x*x)
	x -= u / (1 + 0.5*x*u)
	return x
}

// Log1mExp returns log(1 - exp(x)) for x < 0 using the numerically stable
// split recommended by Mächler.
func Log1mExp(x float64) float64 {
	if x >= 0 {
		return math.NaN()
	}
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// LinearInterp is a piecewise-linear interpolant over strictly increasing
// abscissae. Evaluations outside the range clamp to the end values.
type LinearInterp struct {
	xs, ys []float64
}

// NewLinearInterp builds an interpolant; xs must be strictly increasing and
// the same length as ys (≥ 1 point).
func NewLinearInterp(xs, ys []float64) (*LinearInterp, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, errMismatch(len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return nil, errNotIncreasing(i, xs[i-1], xs[i])
		}
	}
	cx := make([]float64, len(xs))
	cy := make([]float64, len(ys))
	copy(cx, xs)
	copy(cy, ys)
	return &LinearInterp{xs: cx, ys: cy}, nil
}

// At evaluates the interpolant at x.
func (li *LinearInterp) At(x float64) float64 {
	n := len(li.xs)
	if x <= li.xs[0] {
		return li.ys[0]
	}
	if x >= li.xs[n-1] {
		return li.ys[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if li.xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - li.xs[lo]) / (li.xs[hi] - li.xs[lo])
	return li.ys[lo] + t*(li.ys[hi]-li.ys[lo])
}

// InverseAt solves li(x) = y for x assuming ys is monotone (either
// direction); it returns the clamped endpoint when y is out of range.
func (li *LinearInterp) InverseAt(y float64) float64 {
	n := len(li.xs)
	asc := li.ys[n-1] >= li.ys[0]
	lo, hi := 0, n-1
	yLo, yHi := li.ys[0], li.ys[n-1]
	if asc {
		if y <= yLo {
			return li.xs[0]
		}
		if y >= yHi {
			return li.xs[n-1]
		}
	} else {
		if y >= yLo {
			return li.xs[0]
		}
		if y <= yHi {
			return li.xs[n-1]
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if (li.ys[mid] <= y) == asc {
			lo = mid
		} else {
			hi = mid
		}
	}
	y0, y1 := li.ys[lo], li.ys[hi]
	if y1 == y0 {
		return li.xs[lo]
	}
	t := (y - y0) / (y1 - y0)
	return li.xs[lo] + t*(li.xs[hi]-li.xs[lo])
}

type interpError string

func (e interpError) Error() string { return string(e) }

func errMismatch(nx, ny int) error {
	return interpError("numeric: interp needs equal, non-empty xs/ys (got " +
		itoa(nx) + ", " + itoa(ny) + ")")
}

func errNotIncreasing(i int, a, b float64) error {
	return interpError("numeric: interp xs not strictly increasing at index " + itoa(i))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128, inv bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inv {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			acc += x[j] * cmplx.Exp(complex(0, sign*2*math.Pi*float64(k*j)/float64(n)))
		}
		if inv {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

// naiveConvolve is the O(n·m) reference linear convolution.
func naiveConvolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

// planConvolve is the full linear convolution of a and b the way the
// renewal engine composes it: two real transforms, one pointwise
// multiply and one real inverse on a power-of-two plan.
func planConvolve(a, b []float64) ([]float64, error) {
	outLen := len(a) + len(b) - 1
	p, err := NewPlan(NextPow2(outLen))
	if err != nil {
		return nil, err
	}
	sa := make([]complex128, p.SpectrumLen())
	sb := make([]complex128, p.SpectrumLen())
	p.RealForward(sa, a)
	p.RealForward(sb, b)
	MulSpectra(sa, sa, sb)
	full := make([]float64, p.n)
	p.RealInverse(full, sa, nil)
	return full[:outLen], nil
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 2, 0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 64, 256} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 16, 128, 4096} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		for i := range y {
			if cmplx.Abs(y[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d sample %d: round trip %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestRealForwardMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Cover the degenerate n=2 plan, odd input lengths and zero padding.
	for _, tc := range []struct{ n, srcLen int }{
		{2, 2}, {4, 3}, {8, 8}, {64, 37}, {512, 511}, {1024, 1000},
	} {
		p, err := NewPlan(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, tc.srcLen)
		for i := range src {
			src[i] = r.NormFloat64()
		}
		full := make([]complex128, tc.n)
		for i := 0; i < tc.srcLen; i++ {
			full[i] = complex(src[i], 0)
		}
		p.Forward(full)
		spec := make([]complex128, p.SpectrumLen())
		p.RealForward(spec, src)
		for k := range spec {
			if cmplx.Abs(spec[k]-full[k]) > 1e-10*float64(tc.n) {
				t.Fatalf("n=%d len=%d bin %d: real %v vs complex %v", tc.n, tc.srcLen, k, spec[k], full[k])
			}
		}
	}
}

func TestRealRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 4, 32, 2048, 16384} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Float64()
		}
		spec := make([]complex128, p.SpectrumLen())
		p.RealForward(spec, src)
		back := make([]float64, n)
		p.RealInverse(back, spec, nil)
		for i := range back {
			if math.Abs(back[i]-src[i]) > 1e-12 {
				t.Fatalf("n=%d sample %d: %v vs %v", n, i, back[i], src[i])
			}
		}
	}
}

func TestRealInverseScratchMatchesAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 256
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n)
	for i := range src {
		src[i] = r.NormFloat64()
	}
	spec := make([]complex128, p.SpectrumLen())
	p.RealForward(spec, src)
	a := make([]float64, n)
	b := make([]float64, n)
	p.RealInverse(a, spec, nil)
	p.RealInverse(b, spec, make([]complex128, n/2))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scratch variant differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property test: FFT convolution matches the naive convolution across random
// supports including odd lengths and near-power-of-2 sizes.
func TestConvolveMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	lengths := []int{1, 2, 3, 5, 17, 63, 64, 65, 127, 128, 129, 500, 1023, 1025}
	for trial := 0; trial < 60; trial++ {
		la := lengths[r.Intn(len(lengths))]
		lb := lengths[r.Intn(len(lengths))]
		a := make([]float64, la)
		b := make([]float64, lb)
		// Probability-vector-like data: non-negative, sums ≈ 1.
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64()
		}
		got, err := planConvolve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConvolve(a, b)
		if len(got) != len(want) {
			t.Fatalf("lengths %d/%d: conv length %d want %d", la, lb, len(got), len(want))
		}
		scale := maxAbs(want)
		if scale == 0 {
			scale = 1
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				t.Fatalf("lengths %d/%d: conv[%d] = %v want %v (scale %v)", la, lb, i, got[i], want[i], scale)
			}
		}
	}
}

func BenchmarkRealForward(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		p, err := NewPlan(n)
		if err != nil {
			b.Fatal(err)
		}
		src := make([]float64, n)
		r := rand.New(rand.NewSource(7))
		for i := range src {
			src[i] = r.Float64()
		}
		spec := make([]complex128, p.SpectrumLen())
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.RealForward(spec, src)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M+"
	case n >= 1024:
		return itoa(n>>10) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

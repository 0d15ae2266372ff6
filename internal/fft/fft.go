// Package fft provides an iterative radix-2 fast Fourier transform tuned
// for the one job the repository needs it for: linear convolution of long
// non-negative probability vectors inside the renewal sweep engine. It has
// no external dependencies.
//
// The API is plan-based: a Plan precomputes the twiddle factors and the
// bit-reversal permutation for one power-of-two size and is immutable (and
// therefore safe for concurrent use) afterwards. Real-valued inputs go
// through the standard half-size packing trick — an N-point real transform
// costs one N/2-point complex transform plus an O(N) unpack — so convolving
// two real vectors costs two real transforms and one pointwise multiply once
// one operand's spectrum is cached.
//
//yield:compute
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds the precomputed tables for transforms of one power-of-two size.
// A Plan is immutable after NewPlan and safe for concurrent use.
type Plan struct {
	n    int          // transform size (power of two, ≥ 2)
	half *Plan        // plan of size n/2 driving the real-input transforms
	w    []complex128 // forward twiddles e^{-2πik/n}, k in [0, n/2)
	rev  []uint32     // bit-reversal permutation
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 2).
func NextPow2(n int) int {
	if n <= 2 {
		return 2
	}
	return 1 << bits.Len(uint(n-1))
}

// NewPlan builds the tables for size n, which must be a power of two ≥ 2.
func NewPlan(n int) (*Plan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a power of two ≥ 2", n)
	}
	p := newPlanUnchecked(n)
	if n >= 4 {
		p.half = newPlanUnchecked(n / 2)
	}
	return p, nil
}

func newPlanUnchecked(n int) *Plan {
	p := &Plan{n: n}
	p.w = make([]complex128, n/2)
	for k := range p.w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.w[k] = complex(c, s)
	}
	shift := 32 - uint(bits.Len(uint(n-1)))
	p.rev = make([]uint32, n)
	for i := range p.rev {
		p.rev[i] = bits.Reverse32(uint32(i)) >> shift
	}
	return p
}

// SpectrumLen returns the length of a half spectrum produced by RealForward:
// n/2 + 1 bins (DC through Nyquist).
func (p *Plan) SpectrumLen() int { return p.n/2 + 1 }

// Forward transforms x in place (length must equal the plan size).
func (p *Plan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse applies the inverse transform in place, including the 1/n scale.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// transform is the iterative Cooley-Tukey radix-2 kernel.
func (p *Plan) transform(x []complex128, inv bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan size %d", len(x), p.n))
	}
	for i, r := range p.rev {
		if j := int(r); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	n := p.n
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.w[tw]
				if inv {
					w = complex(real(w), -imag(w))
				}
				b := x[k+half] * w
				a := x[k]
				x[k] = a + b
				x[k+half] = a - b
				tw += step
			}
		}
	}
}

// RealForward computes the half spectrum (bins 0..n/2) of a real vector.
// src may be shorter than the plan size; it is treated as zero-padded to n.
// dst must have length SpectrumLen(). The remaining bins of the full
// spectrum are the conjugate mirror and are not stored.
func (p *Plan) RealForward(dst []complex128, src []float64) {
	n := p.n
	if len(src) > n {
		panic(fmt.Sprintf("fft: real input length %d exceeds plan size %d", len(src), n))
	}
	if len(dst) != p.SpectrumLen() {
		panic(fmt.Sprintf("fft: spectrum length %d, want %d", len(dst), p.SpectrumLen()))
	}
	if p.half == nil {
		// n == 2: do it directly.
		var a, b float64
		if len(src) > 0 {
			a = src[0]
		}
		if len(src) > 1 {
			b = src[1]
		}
		dst[0] = complex(a+b, 0)
		dst[1] = complex(a-b, 0)
		return
	}
	m := n / 2
	// Pack src[2j], src[2j+1] as real/imag of one m-point complex vector,
	// reusing dst[:m] as the workspace.
	z := dst[:m]
	for j := 0; j < m; j++ {
		var re, im float64
		if 2*j < len(src) {
			re = src[2*j]
		}
		if 2*j+1 < len(src) {
			im = src[2*j+1]
		}
		z[j] = complex(re, im)
	}
	p.half.Forward(z)
	// Unpack: with E/O the transforms of the even/odd subsequences,
	//   E[k] = (Z[k] + conj(Z[m-k]))/2
	//   O[k] = (Z[k] - conj(Z[m-k]))/(2i)
	//   X[k] = E[k] + e^{-2πik/n}·O[k]
	// Walk k from both ends so each Z pair is consumed before being
	// overwritten.
	z0 := z[0]
	dst[m] = complex(real(z0)-imag(z0), 0) // Nyquist bin
	dcRe := real(z0) + imag(z0)
	for k := 1; k <= m/2; k++ {
		zk, zmk := z[k], z[m-k]
		ek := complex(0.5*(real(zk)+real(zmk)), 0.5*(imag(zk)-imag(zmk)))
		ok := complex(0.5*(imag(zk)+imag(zmk)), 0.5*(real(zmk)-real(zk)))
		wk := p.w[k]
		dst[k] = ek + wk*ok
		// X[m-k] = conj(E[k]) + e^{-2πi(m-k)/n}·conj(O[k]); that twiddle is
		// -conj(w_k), so the product is -conj(w_k·O[k])... expanded directly:
		wmk := p.w[m-k]
		dst[m-k] = complex(real(ek), -imag(ek)) + wmk*complex(real(ok), -imag(ok))
	}
	dst[0] = complex(dcRe, 0)
}

// RealInverse reconstructs the real vector whose half spectrum is spec,
// writing the full n samples into dst (length must equal the plan size).
// spec is not modified. work is scratch of length ≥ n/2 that must not alias
// spec; pass nil to allocate internally.
func (p *Plan) RealInverse(dst []float64, spec, work []complex128) {
	n := p.n
	if len(dst) != n {
		panic(fmt.Sprintf("fft: real output length %d, want %d", len(dst), n))
	}
	if len(spec) != p.SpectrumLen() {
		panic(fmt.Sprintf("fft: spectrum length %d, want %d", len(spec), p.SpectrumLen()))
	}
	if p.half == nil {
		a := real(spec[0])
		b := real(spec[1])
		dst[0] = 0.5 * (a + b)
		dst[1] = 0.5 * (a - b)
		return
	}
	m := n / 2
	if work == nil {
		work = make([]complex128, m)
	}
	z := work[:m]
	// Repack the half spectrum into the half-size complex spectrum:
	//   Z[k] = E[k] + i·O[k] with
	//   E[k] = (X[k] + conj(X[m-k]))/2,
	//   O[k] = e^{+2πik/n}·(X[k] - conj(X[m-k]))/2.
	for k := 0; k < m; k++ {
		xk := spec[k]
		xmk := complex(real(spec[m-k]), -imag(spec[m-k]))
		ek := complex(0.5*(real(xk)+real(xmk)), 0.5*(imag(xk)+imag(xmk)))
		d := complex(0.5*(real(xk)-real(xmk)), 0.5*(imag(xk)-imag(xmk)))
		w := p.w[k] // e^{-2πik/n}; conj is e^{+2πik/n}
		ok := complex(real(w), -imag(w)) * d
		z[k] = ek + complex(-imag(ok), real(ok)) // E + i·O
	}
	p.half.Inverse(z)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j])
		dst[2*j+1] = imag(z[j])
	}
}

// MulSpectra sets dst[i] = a[i]·b[i]. dst may alias a or b.
func MulSpectra(dst, a, b []complex128) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("fft: spectrum length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

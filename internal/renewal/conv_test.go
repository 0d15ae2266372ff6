package renewal

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// refConvolve is the plain truncated convolution both fast kernels must
// reproduce: dst = (d ⊛ f)[0:len(d)].
func refConvolve(d, f []float64) []float64 {
	dst := make([]float64, len(d))
	for j, dv := range d {
		if dv == 0 {
			continue
		}
		for i, fv := range f {
			if j+i >= len(dst) {
				break
			}
			dst[j+i] += dv * fv
		}
	}
	return dst
}

// randomSupport builds a non-negative vector of length n that is zero
// outside [lo, hi).
func randomSupport(r *rand.Rand, n, lo, hi int) []float64 {
	v := make([]float64, n)
	for j := lo; j < hi; j++ {
		v[j] = r.Float64() / float64(hi-lo)
	}
	return v
}

// Property test: the blocked and FFT kernels match the direct kernel across
// random supports, including odd lengths and near-power-of-2 sizes. The
// forced direct kernel, and the blocked kernel on kernels shorter than
// blockedMinTaps, run refConvolve's loop in its order, so they match it
// bit for bit.
func TestConvolveKernelsMatchDirect(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 0))
	type shape struct{ n, lo, hi, nf int }
	shapes := []shape{
		{16, 0, 16, 4},    // below blockedMinTaps: blocked falls back
		{33, 0, 33, 9},    // odd lengths
		{127, 3, 77, 31},  // offset support, odd kernel
		{128, 0, 128, 64}, // exact powers of two
		{129, 1, 100, 65}, // near powers of two
		{1000, 250, 600, 255},
		{1024, 1023, 1024, 17}, // single-cell support at the edge
		{500, 10, 11, 490},     // kernel longer than support
	}
	for trial := 0; trial < 40; trial++ {
		s := shapes[trial%len(shapes)]
		d := randomSupport(r, s.n, s.lo, s.hi)
		f := make([]float64, s.nf)
		for i := range f {
			f[i] = r.Float64() / float64(s.nf)
		}
		want := refConvolve(d, f)

		blocked := make([]float64, s.n)
		convolveBlocked(blocked, d, f, s.lo, s.hi)

		cs := newConvState(fftKernel, f)
		viaFFT := make([]float64, s.n)
		cs.convolve(viaFFT, d, s.lo, s.hi)

		auto := newConvState(sizeRule, f)
		viaAuto := make([]float64, s.n)
		auto.convolve(viaAuto, d, s.lo, s.hi)

		direct := newConvState(directKernel, f)
		viaDirect := make([]float64, s.n)
		direct.convolve(viaDirect, d, s.lo, s.hi)
		assertBits(t, fmt.Sprintf("%+v direct", s), viaDirect, want)

		scale := 0.0
		for _, v := range want {
			if v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		for i := range want {
			if math.Abs(blocked[i]-want[i]) > 1e-13*scale {
				t.Fatalf("shape %+v: blocked[%d] = %g want %g", s, i, blocked[i], want[i])
			}
			if math.Abs(viaFFT[i]-want[i]) > 1e-12*scale {
				t.Fatalf("shape %+v: fft[%d] = %g want %g", s, i, viaFFT[i], want[i])
			}
			if math.Abs(viaAuto[i]-want[i]) > 1e-12*scale {
				t.Fatalf("shape %+v: auto[%d] = %g want %g", s, i, viaAuto[i], want[i])
			}
		}
	}

	for nf := 1; nf <= 7; nf++ { // every kernel length below blockedMinTaps
		for _, s := range []shape{{16, 0, 16, nf}, {33, 5, 29, nf}, {40, 38, 40, nf}, {9, 0, 3, nf}} {
			d := randomSupport(r, s.n, s.lo, s.hi)
			f := make([]float64, s.nf)
			for i := range f {
				f[i] = r.Float64() / float64(s.nf)
			}
			blocked := make([]float64, s.n)
			convolveBlocked(blocked, d, f, s.lo, s.hi)
			assertBits(t, fmt.Sprintf("%+v blocked", s), blocked, refConvolve(d, f))
		}
	}
}

// assertBits fails unless got and want hold the same float64 bits.
func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// The FFT kernel must never leave negative mass behind.
func TestConvolveFFTNonNegative(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 0))
	d := randomSupport(r, 2000, 0, 1200)
	f := make([]float64, 700)
	for i := range f {
		f[i] = r.Float64() / 700
	}
	cs := newConvState(fftKernel, f)
	dst := make([]float64, 2000)
	cs.convolve(dst, d, 0, 1200)
	for i, v := range dst {
		if v < 0 {
			t.Fatalf("negative mass %g at %d", v, i)
		}
	}
}

// sweepLaws are the three spacing laws the acceptance criteria name.
func sweepLaws(t *testing.T) []struct {
	name string
	law  dist.Continuous
} {
	t.Helper()
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		law  dist.Continuous
	}{
		{"truncnormal", tn},
		{"exponential", dist.Exponential{Rate: 0.25}},
		{"deterministic", dist.Deterministic{V: 4}},
	}
}

// The FFT/auto sweeps must match the direct sweep to ≤ 1e-12 normwise
// relative error (the PMFs have unit mass, so normwise relative and absolute
// coincide). Individual probabilities below the sweep's own truncation floor
// (DefaultTailEps) carry no meaning in either path and are not compared in
// relative terms; the paper-anchor pF values — sums weighted toward the
// meaningful part of the distribution — must agree much tighter.
func TestSweepKernelEquivalence(t *testing.T) {
	const pf = 0.531
	for _, tc := range sweepLaws(t) {
		t.Run(tc.name, func(t *testing.T) {
			direct := newForced(t, tc.law, directKernel, WithStep(0.05), WithMaxWidth(200))
			for _, mode := range []struct {
				name string
				k    kernel
			}{{"fft", fftKernel}, {"auto", sizeRule}, {"blocked", blockedKernel}} {
				m := newForced(t, tc.law, mode.k, WithStep(0.05), WithMaxWidth(200))
				for _, w := range []float64{10, 55.5, 103, 155, 200} {
					a, err := direct.CountPMF(w)
					if err != nil {
						t.Fatal(err)
					}
					b, err := m.CountPMF(w)
					if err != nil {
						t.Fatal(err)
					}
					n := a.Len()
					if b.Len() > n {
						n = b.Len()
					}
					for k := 0; k < n; k++ {
						if d := math.Abs(a.Prob(k) - b.Prob(k)); d > 1e-12 {
							t.Errorf("%s w=%g: |Δ P(N=%d)| = %.3g exceeds 1e-12 (direct %g, %s %g)",
								mode.name, w, k, d, a.Prob(k), mode.name, b.Prob(k))
						}
					}
					// pF values at or above the paper-anchor scale must agree
					// tightly in relative terms; deeper values sit at the
					// direct path's own roundoff floor (ulp-level reordering
					// moves them by ~1e-5 relative), so compare absolutely.
					pfa, pfb := a.PGF(pf), b.PGF(pf)
					if pfa >= 1e-9 {
						if rel := math.Abs(pfa-pfb) / pfa; rel > 1e-6 {
							t.Errorf("%s w=%g: pF %g vs %g (rel %.3g)", mode.name, w, pfa, pfb, rel)
						}
					} else if d := math.Abs(pfa - pfb); d > 1e-14 {
						t.Errorf("%s w=%g: pF %g vs %g (|Δ| %.3g)", mode.name, w, pfa, pfb, d)
					}
				}
			}
		})
	}
}

// TestNarrowKernelSweepBits sweeps a grid whose pitch kernel is shorter
// than blockedMinTaps, so the blocked kernel runs convolveDirect: the
// blocked and size-rule sweeps must carry the forced direct sweep's bits.
// The kernel spans the grid plus four cells, so only a grid of at most two
// cells has so narrow a kernel.
func TestNarrowKernelSweepBits(t *testing.T) {
	law := dist.Exponential{Rate: 0.125}
	opts := []Option{WithStep(2), WithMaxWidth(4)}
	direct := newForced(t, law, directKernel, opts...)
	for _, k := range []kernel{blockedKernel, sizeRule} {
		m := newForced(t, law, k, opts...)
		for _, w := range []float64{2, 4} {
			a, err := direct.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() < 3 || b.Len() != a.Len() {
				t.Fatalf("kernel %d w=%g: support %d, direct %d", k, w, b.Len(), a.Len())
			}
			assertBits(t, fmt.Sprintf("kernel %d w=%g", k, w), b.P, a.P)
		}
		if nf := len(m.fMass); nf >= blockedMinTaps {
			t.Fatalf("pitch kernel has %d taps, want fewer than %d", nf, blockedMinTaps)
		}
	}
}

// The paper's pF(155 nm) ≈ 3.11e-9 anchor must hold on the fast path to
// float-noise precision of the direct path's value.
func TestAnchorPF155AcrossKernels(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for _, mode := range []kernel{directKernel, blockedKernel, fftKernel, sizeRule} {
		m := newForced(t, tn, mode, WithStep(0.05), WithMaxWidth(440))
		pmf, err := m.CountPMF(155)
		if err != nil {
			t.Fatal(err)
		}
		pf := pmf.PGF(0.531)
		if pf < 2.8e-9 || pf > 3.4e-9 {
			t.Fatalf("mode %d: pF(155) = %g outside the paper anchor band", mode, pf)
		}
		if mode == directKernel {
			ref = pf
			continue
		}
		if rel := math.Abs(pf-ref) / ref; rel > 1e-6 {
			t.Errorf("mode %d: pF(155) = %.15g vs direct %.15g (rel %.3g)", mode, pf, ref, rel)
		}
	}
}

// newForced builds a model whose sweeps run kernel k instead of the size
// rule: the only way to pick a kernel, and only from this package's tests.
func newForced(tb testing.TB, law dist.Continuous, k kernel, opts ...Option) *Model {
	tb.Helper()
	m, err := New(law, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	m.kernel = k
	return m
}

// TestConvDispatchPinned pins the size rule on both sides of its crossover.
// The kernels round differently, so the pick shows in every swept bit: a
// change to the rule must fail here rather than silently re-number served
// results. Each case is checked twice — pickKernel's verdict, and that the
// rule-driven convolution is bit-identical to the forced kernel — with
// expectations captured from the sweep's dispatch before the crossover
// became a constant.
func TestConvDispatchPinned(t *testing.T) {
	cases := []struct {
		n, lo, hi, taps int
		want            kernel
	}{
		// The default-grid pitch kernel (1143 taps): FFT from 79 support
		// cells on, wherever the support sits.
		{10000, 0, 78, 1143, blockedKernel},
		{10000, 0, 79, 1143, fftKernel},
		{10000, 500, 578, 1143, blockedKernel},
		{10000, 500, 579, 1143, fftKernel},
		{10000, 1200, 7344, 1143, fftKernel},
		{8800, 0, 8800, 1143, fftKernel},
		// Truncated output reach caps the direct cost.
		{10000, 0, 100, 1143, fftKernel},
		{150, 0, 100, 1143, blockedKernel},
		{1100, 1000, 1100, 1143, blockedKernel},
		{1300, 1000, 1300, 1143, blockedKernel},
		// A 64-tap kernel crosses over at 3073 support cells.
		{10000, 0, 1000, 64, blockedKernel},
		{10000, 0, 3072, 64, blockedKernel},
		{10000, 0, 3073, 64, fftKernel},
		{10000, 0, 4000, 64, fftKernel},
		// Short kernels never reach it.
		{10000, 0, 16, 4, blockedKernel},
		{10000, 0, 4000, 7, blockedKernel},
		{10000, 0, 4000, 8, blockedKernel},
		// Long kernels over short supports.
		{10000, 0, 1, 2000, blockedKernel},
		{10000, 0, 61, 2000, blockedKernel},
		{2000, 0, 200, 200, fftKernel},
		{2000, 0, 400, 400, fftKernel},
	}
	r := rand.New(rand.NewPCG(3, 0))
	for _, tc := range cases {
		outEnd := min(tc.hi+tc.taps-1, tc.n)
		if got := pickKernel(tc.lo, tc.hi, outEnd, tc.taps); got != tc.want {
			t.Errorf("%+v: pickKernel = %d, pinned %d", tc, got, tc.want)
		}
		d := randomSupport(r, tc.n, tc.lo, tc.hi)
		f := make([]float64, tc.taps)
		for i := range f {
			f[i] = r.Float64()
		}
		run := func(k kernel) []float64 {
			dst := make([]float64, tc.n)
			newConvState(k, f).convolve(dst, d, tc.lo, tc.hi)
			return dst
		}
		got, want := run(sizeRule), run(tc.want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%+v: dispatched convolution differs from kernel %d at cell %d", tc, tc.want, i)
				break
			}
		}
	}
}

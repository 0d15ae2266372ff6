package renewal

import (
	"math"
	"sync"

	"github.com/cnfet/yieldlab/internal/fft"
)

// Crossover model: one direct convolution costs (support cells)·(kernel
// taps) multiply-adds; one FFT convolution of padded size N costs roughly
// N·log2(N) "butterfly units", each fftCostRatio times more expensive than a
// direct multiply-add. The kernels round differently, so the choice shows
// in swept bits: the ratio is a constant, never measured on the host, to
// keep each sweep a pure function of (law, grid). At 4.0 a paper-grid sweep
// is as fast as all-FFT and ~3.6× faster than all-blocked (BenchmarkSweep).
const fftCostRatio = 4.0

// blockedMinTaps is the smallest kernel length worth the blocked kernel's
// edge handling; below it the plain direct loop wins.
const blockedMinTaps = 8

// kernel names one convolution implementation. Sweeps dispatch by sizeRule;
// only this package's tests force another, through Model.kernel, so no
// cache key, snapshot or store record can depend on one.
type kernel uint8

const (
	sizeRule      kernel = iota // blockedKernel or fftKernel, by pickKernel
	directKernel                // the naive reference loop
	blockedKernel               // the register-blocked direct loop
	fftKernel                   // spectral multiplication
)

// pickKernel is the sweep's one dispatch rule: blocked direct convolution
// while its multiply-adds cost no more than the FFT's butterflies, FFT
// beyond. It reads only sizes — the support [lo, hi), the reachable output
// end outEnd and the kernel length nf.
func pickKernel(lo, hi, outEnd, nf int) kernel {
	taps := min(nf, outEnd-lo)
	directCost := float64(hi-lo) * float64(taps)
	padded := fft.NextPow2(hi - lo + nf - 1)
	if directCost > fftCostRatio*float64(padded)*math.Log2(float64(padded)) {
		return fftKernel
	}
	return blockedKernel
}

// planCache shares FFT plans (immutable twiddle tables) across all models.
var planCache sync.Map // int → *fft.Plan

func planFor(n int) *fft.Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*fft.Plan)
	}
	p, err := fft.NewPlan(n)
	if err != nil {
		panic(err) // n comes from NextPow2: unreachable
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*fft.Plan)
}

// convState carries the per-sweep scratch for kernel dispatch: FFT buffers
// and the kernel spectra cached per padded size. It is created per sweep
// call, so concurrent sweeps never share mutable state.
type convState struct {
	force kernel               // sizeRule, or a kernel forced by tests
	f     []float64            // pitch kernel
	fSpec map[int][]complex128 // padded size → cached spectrum of f
	spec  []complex128         // d spectrum scratch
	work  []complex128         // inverse-transform scratch
	out   []float64            // full conv output scratch
}

func newConvState(force kernel, f []float64) *convState {
	return &convState{force: force, f: f, fSpec: make(map[int][]complex128)}
}

// convolve computes dst = d ⊛ f truncated to len(dst), given that d is zero
// outside [lo, hi). dst is fully overwritten; entries outside the reachable
// output range [lo, min(len(dst), hi+len(f)-1)) are exact zeros.
func (cs *convState) convolve(dst, d []float64, lo, hi int) {
	for i := range dst {
		dst[i] = 0
	}
	if lo >= hi {
		return
	}
	outEnd := min(hi+len(cs.f)-1, len(dst))
	k := cs.force
	if k == sizeRule {
		k = pickKernel(lo, hi, outEnd, len(cs.f))
	}
	switch k {
	case directKernel:
		convolveFrom(dst, d, cs.f, lo)
	case blockedKernel:
		convolveBlocked(dst, d, cs.f, lo, hi)
	case fftKernel:
		cs.convolveFFT(dst, d, lo, hi, outEnd)
	}
}

// convolveFFT multiplies in the spectral domain. Roundoff can leave tiny
// negative values where the true convolution is ~0; they are clamped so the
// sweep's probability invariants survive.
func (cs *convState) convolveFFT(dst, d []float64, lo, hi, outEnd int) {
	padded := fft.NextPow2(hi - lo + len(cs.f) - 1)
	plan := planFor(padded)
	fs, ok := cs.fSpec[padded]
	if !ok {
		fs = make([]complex128, plan.SpectrumLen())
		plan.RealForward(fs, cs.f)
		cs.fSpec[padded] = fs
	}
	if cap(cs.spec) < plan.SpectrumLen() {
		cs.spec = make([]complex128, plan.SpectrumLen())
	}
	spec := cs.spec[:plan.SpectrumLen()]
	if cap(cs.work) < padded/2 {
		cs.work = make([]complex128, padded/2)
	}
	if cap(cs.out) < padded {
		cs.out = make([]float64, padded)
	}
	out := cs.out[:padded]
	plan.RealForward(spec, d[lo:hi])
	fft.MulSpectra(spec, spec, fs)
	plan.RealInverse(out, spec, cs.work[:padded/2])
	total := 0.0
	for i, v := range out[:outEnd-lo] {
		if v > 0 {
			dst[lo+i] = v
			total += v
		}
	}
	// Denoise the tails: spectral roundoff leaves ~1e-16·mass of positive
	// noise smeared across the true-zero tail cells, which would otherwise
	// defeat the sweep's support trimming (and with it the shrinking FFT
	// sizes). Tail mass below 1e-18 of the result's total is
	// indistinguishable from that noise — the kernel's intrinsic error is
	// ~1e-15 of the mass — so zero it from both ends.
	floor := 1e-18 * total
	var acc float64
	i := lo
	for ; i < outEnd; i++ {
		acc += dst[i]
		if acc > floor {
			break
		}
		dst[i] = 0
	}
	acc = 0
	for j := outEnd - 1; j > i; j-- {
		acc += dst[j]
		if acc > floor {
			break
		}
		dst[j] = 0
	}
}

// convolveBlocked is the register-blocked direct kernel: four source cells
// per pass share each loaded output cell, quartering the dst load/store
// traffic of convolveFrom. Results match convolveFrom up to float addition
// order. d must be zero outside [lo, hi); dst must be pre-zeroed.
func convolveBlocked(dst, d, f []float64, lo, hi int) {
	n := len(dst)
	nf := len(f)
	if hi > n {
		hi = n
	}
	if nf < blockedMinTaps {
		convolveFrom(dst, d, f, lo)
		return
	}
	j := lo
	for ; j+4 <= hi; j += 4 {
		d0, d1, d2, d3 := d[j], d[j+1], d[j+2], d[j+3]
		if d0 == 0 && d1 == 0 && d2 == 0 && d3 == 0 {
			continue
		}
		end := j + nf + 3 // exclusive bound of the quad's reachable outputs
		if end > n {
			end = n
		}
		// Head cells where the younger taps are still out of range.
		if j < end {
			dst[j] += d0 * f[0]
		}
		if j+1 < end {
			dst[j+1] += d0*f[1] + d1*f[0]
		}
		if j+2 < end {
			dst[j+2] += d0*f[2] + d1*f[1] + d2*f[0]
		}
		// Main run: all four taps in range. The four kernel windows are
		// pre-sliced to the output length so the loop carries no bounds
		// checks.
		mEnd := j + nf
		if mEnd > end {
			mEnd = end
		}
		if mEnd > j+3 {
			out := dst[j+3 : mEnd]
			f0 := f[3 : 3+len(out)]
			f1 := f[2 : 2+len(out)]
			f2 := f[1 : 1+len(out)]
			f3 := f[0:len(out)]
			for i := range out {
				out[i] += d0*f0[i] + d1*f1[i] + d2*f2[i] + d3*f3[i]
			}
		}
		// Tail cells where the older taps have run off the kernel.
		if x := j + nf; x < end {
			dst[x] += d1*f[nf-1] + d2*f[nf-2] + d3*f[nf-3]
		}
		if x := j + nf + 1; x < end {
			dst[x] += d2*f[nf-1] + d3*f[nf-2]
		}
		if x := j + nf + 2; x < end {
			dst[x] += d3 * f[nf-1]
		}
	}
	// Scalar remainder.
	for ; j < hi; j++ {
		dv := d[j]
		if dv == 0 {
			continue
		}
		lim := n - j
		if lim > nf {
			lim = nf
		}
		df := dst[j : j+lim]
		ff := f[:lim]
		for i := range ff {
			df[i] += dv * ff[i]
		}
	}
}

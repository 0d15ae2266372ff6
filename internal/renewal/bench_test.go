package renewal

import (
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab/internal/dist"
)

// benchPitch is the calibrated-pitch-shaped law every sweep benchmark uses:
// post-truncation mean 4 nm, parent sigma 9.2 nm, truncated at 0.
func benchPitch(b *testing.B) dist.TruncNormal {
	b.Helper()
	tn, err := dist.TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		b.Fatal(err)
	}
	return tn
}

// BenchmarkSweep measures one full cold arrival sweep to 440 nm at the
// paper's default 0.05 nm grid, per serving kernel. auto is the size rule
// every sweep runs; the CI bench gate holds it against all-blocked. The
// naive direct loop is the tests' reference and is not timed.
func BenchmarkSweep(b *testing.B) {
	tn := benchPitch(b)
	for _, tc := range []struct {
		name string
		k    kernel
	}{
		{"blocked", blockedKernel},
		{"fft", fftKernel},
		{"auto", sizeRule},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := newForced(b, tn, tc.k, WithStep(0.05), WithMaxWidth(440))
				if _, err := m.CountPMF(440); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvolve measures one mid-sweep-shaped convolution per serving
// kernel: 6144 source cells against a 1143-tap kernel (the calibrated pitch
// law's discretized support at the default grid).
func BenchmarkConvolve(b *testing.B) {
	const (
		n    = 8800
		lo   = 1200
		hi   = lo + 6144
		taps = 1143
	)
	r := rand.New(rand.NewSource(21))
	d := make([]float64, n)
	for j := lo; j < hi; j++ {
		d[j] = r.Float64() / float64(hi-lo)
	}
	f := make([]float64, taps)
	for i := range f {
		f[i] = r.Float64() / float64(taps)
	}
	dst := make([]float64, n)
	for _, tc := range []struct {
		name string
		k    kernel
	}{
		{"blocked", blockedKernel},
		{"fft", fftKernel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cs := newConvState(tc.k, f)
			for i := 0; i < b.N; i++ {
				cs.convolve(dst, d, lo, hi)
			}
		})
	}
}

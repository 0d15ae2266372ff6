package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/cnfet/yieldlab/internal/stat"
)

// samplerTestLaws covers the truncation shapes the table must handle: the
// calibrated-pitch style [0, ∞) law, a deep lower truncation, a two-sided
// window and an unbounded-below law.
func samplerTestLaws(t *testing.T) []TruncNormal {
	t.Helper()
	pitchLike, err := TruncNormalWithMean(4, 1.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := NewTruncNormal(-3, 1, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	window, err := NewTruncNormal(10, 3, 8, 14)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := NewTruncNormal(2, 0.7, math.Inf(-1), 3)
	if err != nil {
		t.Fatal(err)
	}
	return []TruncNormal{pitchLike, deep, window, unbounded}
}

// The tabulated quantile must stay within one grid cell of the exact
// quantile: for any u under the tabulated mass, both lie in the same cell
// of the construction grid, so |table - exact| ≤ Span/cells by
// construction. This is the documented sup-norm bound.
func TestTruncNormalTableSupNormBound(t *testing.T) {
	for _, law := range samplerTestLaws(t) {
		tab, err := NewTruncNormalTable(law, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound := tab.h + 1e-12
		sup := 0.0
		for i := 1; i < 20_000; i++ {
			u := float64(i) / 20_000
			d := math.Abs(tab.Quantile(u) - law.Quantile(u))
			if d > sup {
				sup = d
			}
		}
		if sup > bound {
			t.Errorf("law %+v: sup-norm %g exceeds cell bound %g", law, sup, bound)
		}
	}
}

func TestTruncNormalTableQuantileMonotoneAndEdges(t *testing.T) {
	law := samplerTestLaws(t)[0]
	tab, err := NewTruncNormalTable(law, 512)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for i := 0; i <= 5000; i++ {
		u := float64(i) / 5000
		x := tab.Quantile(u)
		if x < prev {
			t.Fatalf("quantile not monotone at u=%g: %g < %g", u, x, prev)
		}
		prev = x
	}
	if got := tab.Quantile(0); got != law.Lower {
		t.Errorf("Quantile(0) = %g, want lower bound %g", got, law.Lower)
	}
	if !math.IsNaN(tab.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) should be NaN")
	}
	// Beyond the tabulated mass the exact tail takes over, so values above
	// the table cap remain reachable.
	if got := tab.Quantile(1 - 1e-15); !(got >= tab.h*float64(len(tab.cdf)-1)) && got < law.Quantile(1-1e-15)-1e-9 {
		t.Errorf("tail fallback broken: %g", got)
	}
}

// Sampling through the table must reproduce the law's moments.
func TestTruncNormalTableSampleMoments(t *testing.T) {
	for _, law := range samplerTestLaws(t) {
		tab, err := NewTruncNormalTable(law, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := testRand(11)
		var w stat.Welford
		for i := 0; i < 200_000; i++ {
			w.Add(tab.Sample(r))
		}
		if d := math.Abs(w.Mean() - law.Mean()); d > 5*law.StdDev()/math.Sqrt(200_000)+1e-3 {
			t.Errorf("law %+v: sampled mean %g vs %g", law, w.Mean(), law.Mean())
		}
		if d := math.Abs(w.StdDev() - law.StdDev()); d > 0.02*law.StdDev()+1e-3 {
			t.Errorf("law %+v: sampled sd %g vs %g", law, w.StdDev(), law.StdDev())
		}
	}
}

// The table grid must adapt to the law's scale: a tight-sigma law (cell
// width of a support-spanning grid would dwarf sigma) has to keep accurate
// moments through the table. Regression for the grid spanning the raw
// support instead of the quantile-bounded mass region.
func TestTruncNormalTableTightSigma(t *testing.T) {
	law, err := TruncNormalWithMean(4, 4e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTruncNormalTable(law, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cell := tab.h; cell > law.StdDev()/50 {
		t.Fatalf("cell width %g not adapted to sigma %g", cell, law.StdDev())
	}
	r := testRand(19)
	var w stat.Welford
	for i := 0; i < 200_000; i++ {
		w.Add(tab.Sample(r))
	}
	if rel := math.Abs(w.StdDev()-law.StdDev()) / law.StdDev(); rel > 0.02 {
		t.Fatalf("tight-sigma sampled sd %g vs exact %g (%.1f%% off)", w.StdDev(), law.StdDev(), rel*100)
	}
	if rel := math.Abs(w.Mean()-law.Mean()) / law.StdDev(); rel > 0.02 {
		t.Fatalf("tight-sigma sampled mean %g vs exact %g", w.Mean(), law.Mean())
	}
}

func TestTruncNormalTableForShares(t *testing.T) {
	law, err := TruncNormalWithMean(7, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := TruncNormalTableFor(law)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TruncNormalTableFor(law)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same law should share one table")
	}
	other, err := TruncNormalWithMean(7, 2.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := TruncNormalTableFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct laws must not share a table")
	}
}

func TestNewTruncNormalTableRejectsZeroValue(t *testing.T) {
	if _, err := NewTruncNormalTable(TruncNormal{}, 0); err == nil {
		t.Error("zero-value TruncNormal should be rejected")
	}
}

// FastSamplerFor must dispatch to stream-compatible samplers: the closures
// consume the generator exactly like the interface Sample they replace.
func TestFastSamplerForDispatch(t *testing.T) {
	t.Run("exponential", func(t *testing.T) {
		law := Exponential{Rate: 0.25}
		s, err := FastSamplerFor(law)
		if err != nil {
			t.Fatal(err)
		}
		a, b := testRand(5), testRand(5)
		for i := 0; i < 1000; i++ {
			if got, want := s(a), law.Sample(b); got != want {
				t.Fatalf("draw %d: %g != %g", i, got, want)
			}
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		s, err := FastSamplerFor(Deterministic{V: 4})
		if err != nil {
			t.Fatal(err)
		}
		if s(testRand(1)) != 4 {
			t.Fatal("deterministic sampler")
		}
	})
	t.Run("truncnormal", func(t *testing.T) {
		law := samplerTestLaws(t)[0]
		s, err := FastSamplerFor(law)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := TruncNormalTableFor(law)
		if err != nil {
			t.Fatal(err)
		}
		a, b := testRand(9), testRand(9)
		for i := 0; i < 1000; i++ {
			if got, want := s(a), tab.Sample(b); got != want {
				t.Fatalf("draw %d: %g != %g", i, got, want)
			}
		}
		// And the table stays within its sup-norm bound of the exact draw.
		bound := tab.h + 1e-12
		c, d := testRand(13), testRand(13)
		for i := 0; i < 1000; i++ {
			if diff := math.Abs(s(c) - law.Sample(d)); diff > bound {
				t.Fatalf("draw %d: table deviates %g > %g", i, diff, bound)
			}
		}
	})
	t.Run("pointer-truncnormal", func(t *testing.T) {
		law := samplerTestLaws(t)[0]
		s, err := FastSamplerFor(&law)
		if err != nil {
			t.Fatal(err)
		}
		if s == nil {
			t.Fatal("nil sampler")
		}
	})
	t.Run("fallback", func(t *testing.T) {
		law := fallbackLaw{}
		s, err := FastSamplerFor(law)
		if err != nil {
			t.Fatal(err)
		}
		if s(testRand(1)) != 42 {
			t.Fatal("fallback must use the law's own Sample")
		}
	})
	t.Run("nil", func(t *testing.T) {
		if _, err := FastSamplerFor(nil); err == nil {
			t.Error("nil law should error")
		}
	})
}

type fallbackLaw struct{}

func (fallbackLaw) Mean() float64               { return 42 }
func (fallbackLaw) StdDev() float64             { return 1 }
func (fallbackLaw) CDF(x float64) float64       { return 0 }
func (fallbackLaw) Quantile(p float64) float64  { return 42 }
func (fallbackLaw) Sample(r *rand.Rand) float64 { return 42 }

// The guide array only shortens the inversion walk: a table whose guide has
// one slot per cell (the original 4096-slot resolution) and the default
// finer guide must return the same bits for every u, on every test law.
func TestTruncNormalTableGuideResolutionBitIdentical(t *testing.T) {
	const draws = 1_000_000
	for _, law := range samplerTestLaws(t) {
		fine, err := NewTruncNormalTable(law, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fine.guide) <= len(fine.cdf)-1 {
			t.Fatalf("default guide has %d slots for %d cells; want a finer guide", len(fine.guide), len(fine.cdf)-1)
		}
		coarse := *fine
		coarse.guide = buildGuide(fine.cdf, len(fine.cdf)-1)
		check := func(u float64) {
			if a, b := fine.Quantile(u), coarse.Quantile(u); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("law %+v: Quantile(%v) = %v with the fine guide, %v with the per-cell guide", law, u, a, b)
			}
		}
		r := testRand(11)
		for i := 0; i < draws; i++ {
			check(r.Float64())
		}
		// Slot boundaries and the tabulated-mass edges.
		for k := 0; k <= len(fine.guide); k++ {
			u := float64(k) / float64(len(fine.guide))
			check(u)
			check(math.Nextafter(u, 0))
			check(math.Nextafter(u, 1))
		}
		check(fine.cdf[0])
		check(fine.maxU)
	}
}

// BenchmarkTruncNormalSample compares the exact inverse-CDF draw against the
// tabulated sampler on the calibrated-pitch-class law. Registered in
// BENCH_BASELINE.json; the benchgate ratio pins table ≥ 4× exact
// machine-independently.
func BenchmarkTruncNormalSample(b *testing.B) {
	law, err := TruncNormalWithMean(4, 1.2, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		r := testRand(2)
		var x float64
		for i := 0; i < b.N; i++ {
			x = law.Sample(r)
		}
		_ = x
	})
	b.Run("table", func(b *testing.B) {
		tab, err := NewTruncNormalTable(law, 0)
		if err != nil {
			b.Fatal(err)
		}
		r := testRand(2)
		var x float64
		for i := 0; i < b.N; i++ {
			x = tab.Sample(r)
		}
		_ = x
	})
}

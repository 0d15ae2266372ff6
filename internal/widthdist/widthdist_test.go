package widthdist

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/tech"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty")
	}
	if _, err := New([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch")
	}
	if _, err := New([]float64{-1, 2}, []float64{1, 1}); err == nil {
		t.Error("negative width")
	}
	if _, err := New([]float64{2, 1}, []float64{1, 1}); err == nil {
		t.Error("non-increasing widths")
	}
	if _, err := New([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Error("negative prob")
	}
	if _, err := New([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero mass")
	}
	d, err := New([]float64{10, 20}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d.Probs()[0], 0.75, 1e-15) {
		t.Fatal("normalization")
	}
}

// Frozen-distribution regressions for the paper's Fig. 2.2a.
func TestOpenRISC45PaperShape(t *testing.T) {
	d := OpenRISC45()
	// Two left bins hold exactly 33%.
	if got := d.ShareBelow(120); !almost(got, 0.33, 1e-12) {
		t.Fatalf("share below 120 nm = %v, want 0.33", got)
	}
	// Wmin=155 upsizes exactly those transistors (empty [120,160) bin).
	if got := d.ShareBelow(155); !almost(got, 0.33, 1e-12) {
		t.Fatalf("share below 155 nm = %v, want 0.33", got)
	}
	// Mean calibrated for the Fig. 2.2b scaling band.
	if m := d.Mean(); m < 200 || m > 220 {
		t.Fatalf("mean = %v, want ≈ 211", m)
	}
	if d.MinWidth() != 60 || d.MaxWidth() != 420 {
		t.Fatalf("support [%v, %v]", d.MinWidth(), d.MaxWidth())
	}
}

// The headline penalty numbers derived from the frozen distribution.
func TestOpenRISC45PenaltyBand(t *testing.T) {
	d := OpenRISC45()
	penalty := func(dd *Distribution, wt float64) float64 {
		return dd.UpsizedMean(wt)/dd.Mean() - 1
	}
	p45 := penalty(d, 155)
	if p45 < 0.08 || p45 > 0.15 {
		t.Fatalf("45 nm penalty at Wt=155: %v, want ≈ 0.11", p45)
	}
	n16, err := tech.ByName("16nm")
	if err != nil {
		t.Fatal(err)
	}
	d16, err := d.Scale(n16)
	if err != nil {
		t.Fatal(err)
	}
	p16 := penalty(d16, 155)
	if p16 < 0.9 || p16 > 1.25 {
		t.Fatalf("16 nm penalty at Wt=155: %v, want ≈ 1.05", p16)
	}
	if p16 < 5*p45 {
		t.Fatalf("scaling should blow the penalty up: %v vs %v", p16, p45)
	}
}

func TestMeanAndUpsizedMean(t *testing.T) {
	d, _ := New([]float64{10, 30}, []float64{0.5, 0.5})
	if !almost(d.Mean(), 20, 1e-12) {
		t.Fatal("mean")
	}
	if !almost(d.UpsizedMean(5), 20, 1e-12) {
		t.Fatal("no-op upsize")
	}
	if !almost(d.UpsizedMean(30), 30, 1e-12) {
		t.Fatal("full upsize")
	}
	if !almost(d.UpsizedMean(20), 25, 1e-12) {
		t.Fatal("partial upsize")
	}
}

func TestShareBelowBoundaries(t *testing.T) {
	d, _ := New([]float64{10, 20, 30}, []float64{1, 1, 2})
	if d.ShareBelow(10) != 0 {
		t.Fatal("strictly below at min")
	}
	if !almost(d.ShareBelow(20.0001), 0.5, 1e-12) {
		t.Fatal("mid share")
	}
	if !almost(d.ShareBelow(1000), 1, 1e-12) {
		t.Fatal("all below")
	}
}

func TestScale(t *testing.T) {
	d := OpenRISC45()
	n32, err := tech.ByName("32nm")
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Scale(n32)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Mean(), d.Mean()*32.0/45, 1e-9) {
		t.Fatalf("scaled mean: %v", s.Mean())
	}
	if !almost(s.MinWidth(), 60*32.0/45, 1e-9) {
		t.Fatalf("scaled min: %v", s.MinWidth())
	}
	if _, err := d.Scale(tech.Node{Name: "bad"}); err == nil {
		t.Fatal("invalid node should error")
	}
}

func TestHistogramRendering(t *testing.T) {
	d := OpenRISC45()
	h, err := d.Histogram(40)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(h.Total(), 1, 1e-12) {
		t.Fatalf("total: %v", h.Total())
	}
	// First bin [40,80) holds 13%, second [80,120) 20%, third [120,160) 0.
	sh := h.Shares()
	if !almost(sh[0], 0.13, 1e-12) || !almost(sh[1], 0.20, 1e-12) || sh[2] != 0 {
		t.Fatalf("bin shares: %v", sh[:4])
	}
	if _, err := d.Histogram(0); err == nil {
		t.Fatal("zero bin width")
	}
}

// Property: UpsizedMean is non-decreasing in the threshold and always ≥ the
// raw mean; ShareBelow is in [0,1].
func TestQuickUpsizeMonotone(t *testing.T) {
	d := OpenRISC45()
	f := func(raw uint16) bool {
		wt := float64(raw%500) + 1
		um1 := d.UpsizedMean(wt)
		um2 := d.UpsizedMean(wt + 25)
		sb := d.ShareBelow(wt)
		return um1 >= d.Mean()-1e-12 && um2 >= um1-1e-12 && sb >= 0 && sb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

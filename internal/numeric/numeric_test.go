package numeric

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBisectFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Fatalf("Bisect: got %v want sqrt(2)", x)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-12, 100); err != nil || x != 0 {
		t.Fatalf("lo endpoint root: got %v, %v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-12, 100); err != nil || x != 0 {
		t.Fatalf("hi endpoint root: got %v, %v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12, 100); err == nil {
		t.Fatal("expected ErrNoBracket")
	}
}

func TestSimpsonPolynomialExact(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x*x - 2*x + 1 }
	got := Simpson(f, -1, 2, 2)
	want := 3.0/4*(16-1) - (4 - 1) + 3 // ∫ = 3x⁴/4 - x² + x
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Simpson cubic: got %v want %v", got, want)
	}
}

func TestSimpsonSin(t *testing.T) {
	got := Simpson(math.Sin, 0, math.Pi, 200)
	if math.Abs(got-2) > 1e-8 {
		t.Fatalf("Simpson sin: got %v want 2", got)
	}
}

func TestSimpsonOddPanelsRoundedUp(t *testing.T) {
	a := Simpson(math.Sin, 0, math.Pi, 201)
	b := Simpson(math.Sin, 0, math.Pi, 202)
	if a != b {
		t.Fatalf("odd n should round up: %v vs %v", a, b)
	}
}

func TestKahanCompensates(t *testing.T) {
	var k Kahan
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	got := k.Sum()
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Fatalf("Kahan: got %.17g want %.17g", got, want)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{2.5, 0.9937903346742238},
		{-6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) &&
			math.Abs(got-c.want)/c.want > 1e-10 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalSFComplement(t *testing.T) {
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 5} {
		if got := NormalSF(x) + NormalCDF(x); math.Abs(got-1) > 1e-14 {
			t.Errorf("SF+CDF at %v = %v", x, got)
		}
	}
	// Deep tail keeps relative accuracy.
	if got := NormalSF(10); got <= 0 || got > 1e-20 {
		t.Errorf("NormalSF(10) = %v, want ~7.6e-24", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-10*math.Max(p, 1e-3) && math.Abs(got-p) > 1e-13 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("edge quantiles should be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.1)) {
		t.Error("out-of-range quantiles should be NaN")
	}
	if NormalQuantile(0.5) != 0 {
		t.Errorf("median should be exactly refined to ~0, got %v", NormalQuantile(0.5))
	}
}

func TestLinearInterp(t *testing.T) {
	li, err := NewLinearInterp([]float64{0, 1, 3}, []float64{0, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 1}, {1, 2}, {2, 4}, {3, 6}, {5, 6},
	}
	for _, c := range cases {
		if got := li.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v want %v", c.x, got, c.want)
		}
	}
}

func TestLinearInterpInverse(t *testing.T) {
	li, _ := NewLinearInterp([]float64{0, 1, 2}, []float64{10, 5, 1})
	for _, y := range []float64{10, 7.5, 5, 3, 1} {
		x := li.InverseAt(y)
		if got := li.At(x); math.Abs(got-y) > 1e-9 {
			t.Errorf("InverseAt(%v): At(%v) = %v", y, x, got)
		}
	}
	if x := li.InverseAt(100); x != 0 {
		t.Errorf("clamp above: got %v", x)
	}
	if x := li.InverseAt(-100); x != 2 {
		t.Errorf("clamp below: got %v", x)
	}
}

func TestLinearInterpErrors(t *testing.T) {
	if _, err := NewLinearInterp(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := NewLinearInterp([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing xs should error")
	}
	if _, err := NewLinearInterp([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLinspaceLogspace(t *testing.T) {
	ls := Linspace(0, 1, 5)
	if len(ls) != 5 || ls[0] != 0 || ls[4] != 1 || math.Abs(ls[2]-0.5) > 1e-15 {
		t.Fatalf("Linspace: %v", ls)
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Linspace n=1: %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Fatalf("Linspace n=0: %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

// Property: for random monotone piecewise-linear data, At(InverseAt(y)) == y
// within tolerance for y inside the range.
func TestQuickInterpRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 0))
		n := 2 + r.IntN(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x, y := r.Float64(), r.Float64()
		for i := 0; i < n; i++ {
			xs[i], ys[i] = x, y
			x += 0.01 + r.Float64()
			y += 0.01 + r.Float64()
		}
		li, err := NewLinearInterp(xs, ys)
		if err != nil {
			return false
		}
		for k := 0; k < 10; k++ {
			target := ys[0] + r.Float64()*(ys[n-1]-ys[0])
			if math.Abs(li.At(li.InverseAt(target))-target) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSumSlice(t *testing.T) {
	if got := SumSlice([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("SumSlice: %v", got)
	}
	if got := SumSlice(nil); got != 0 {
		t.Fatalf("SumSlice(nil): %v", got)
	}
}

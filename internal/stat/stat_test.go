package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/numeric"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// variance is the two-pass batch reference Welford is held against: the
// unbiased sample variance (NaN for n < 2).
func variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var k numeric.Kahan
	for _, x := range xs {
		d := x - m
		k.Add(d * d)
	}
	return k.Sum() / float64(n-1)
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("Mean: %v", m)
	}
	if v := variance(xs); !almost(v, 32.0/7, 1e-12) {
		t.Fatalf("Variance: %v", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(variance([]float64{1})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestCorr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := Corr(xs, ys); !almost(c, 1, 1e-12) {
		t.Fatalf("perfect corr: %v", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := Corr(xs, neg); !almost(c, -1, 1e-12) {
		t.Fatalf("perfect anticorr: %v", c)
	}
	if !math.IsNaN(Corr(xs, []float64{1, 1, 1, 1, 1})) {
		t.Fatal("constant series should give NaN")
	}
	if !math.IsNaN(Corr(xs, ys[:3])) {
		t.Fatal("length mismatch should give NaN")
	}
}

func TestCorrIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 200_000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = r.NormFloat64(), r.NormFloat64()
	}
	if c := Corr(xs, ys); math.Abs(c) > 0.01 {
		t.Fatalf("independent corr too large: %v", c)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 5
		w.Add(xs[i])
	}
	if !almost(w.Mean(), Mean(xs), 1e-10) {
		t.Fatalf("Welford mean %v vs %v", w.Mean(), Mean(xs))
	}
	if !almost(w.Variance(), variance(xs), 1e-8) {
		t.Fatalf("Welford var %v vs %v", w.Variance(), variance(xs))
	}
	if w.N() != 1000 {
		t.Fatalf("N: %d", w.N())
	}
	if se := w.StdErr(); !almost(se, w.StdDev()/math.Sqrt(1000), 1e-12) {
		t.Fatalf("StdErr: %v", se)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	xs := make([]float64, 501)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	var whole, a, b Welford
	for i, x := range xs {
		whole.Add(x)
		if i < 200 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() || !almost(a.Mean(), whole.Mean(), 1e-12) || !almost(a.Variance(), whole.Variance(), 1e-10) {
		t.Fatalf("merge mismatch: %v/%v vs %v/%v", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() {
		t.Fatal("merge into empty should copy")
	}
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Fatal("merging empty should be a no-op")
	}
}

// Property: merging a random split equals whole-sample accumulation.
func TestQuickWelfordMergeSplit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		cut := 1 + r.Intn(n-1)
		var whole, a, b Welford
		for i := 0; i < n; i++ {
			x := r.NormFloat64()
			whole.Add(x)
			if i < cut {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			almost(a.Mean(), whole.Mean(), 1e-9) &&
			almost(a.Variance(), whole.Variance(), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

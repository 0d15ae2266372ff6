package dist

import (
	"math"
	"testing"

	"github.com/cnfet/yieldlab/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewPMFValidation(t *testing.T) {
	if _, err := NewPMF(nil); err == nil {
		t.Error("empty slice")
	}
	if _, err := NewPMF([]float64{0.5, -0.1}); err == nil {
		t.Error("negative mass")
	}
	if _, err := NewPMF([]float64{math.NaN()}); err == nil {
		t.Error("NaN mass")
	}
	if _, err := NewPMF([]float64{0, 0}); err == nil {
		t.Error("no mass")
	}
	if _, err := NewPMF([]float64{0.8, 0.8}); err == nil {
		t.Error("mass above 1")
	}
	p, err := NewPMF([]float64{0.25, 0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || !almost(p.TotalMass(), 1, 1e-15) {
		t.Fatalf("len %d mass %v", p.Len(), p.TotalMass())
	}
}

func TestPointPMF(t *testing.T) {
	if _, err := PointPMF(-1); err == nil {
		t.Error("negative count")
	}
	p, err := PointPMF(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 || p.Prob(4) != 1 || p.Prob(3) != 0 || p.Mean() != 4 || p.Variance() != 0 {
		t.Fatalf("point mass: %+v", p)
	}
}

func TestPoissonPMFMassAndMoments(t *testing.T) {
	for _, lambda := range []float64{0.3, 2, 15, 80} {
		p, err := PoissonPMF(lambda, 1e-14)
		if err != nil {
			t.Fatal(err)
		}
		if m := p.TotalMass(); !almost(m, 1, 1e-12) {
			t.Errorf("lambda=%v: mass %v", lambda, m)
		}
		if !almost(p.Mean(), lambda, 1e-9*lambda+1e-11) {
			t.Errorf("lambda=%v: mean %v", lambda, p.Mean())
		}
		if !almost(p.Variance(), lambda, 1e-8*lambda+1e-10) {
			t.Errorf("lambda=%v: variance %v", lambda, p.Variance())
		}
		// Closed-form PGF: exp(λ(z-1)).
		for _, z := range []float64{0.1, 0.531, 0.95} {
			want := math.Exp(lambda * (z - 1))
			if got := p.PGF(z); math.Abs(got-want)/want > 1e-10 {
				t.Errorf("lambda=%v PGF(%v) = %v want %v", lambda, z, got, want)
			}
		}
	}
	if _, err := PoissonPMF(-1, 1e-12); err == nil {
		t.Error("negative mean")
	}
	if _, err := PoissonPMF(3, 0); err == nil {
		t.Error("zero tolerance")
	}
	zero, err := PoissonPMF(0, 1e-12)
	if err != nil || zero.Prob(0) != 1 {
		t.Fatalf("Poisson(0): %v %v", zero, err)
	}
}

func TestBinomialPMFMassAndMoments(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{{0, 0.4}, {1, 0.2}, {12, 0.531}, {200, 0.033}} {
		p, err := BinomialPMF(tc.n, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != tc.n+1 {
			t.Fatalf("n=%d: support %d", tc.n, p.Len())
		}
		if m := p.TotalMass(); !almost(m, 1, 1e-12) {
			t.Errorf("n=%d q=%v: mass %v", tc.n, tc.q, m)
		}
		wantMean := float64(tc.n) * tc.q
		if !almost(p.Mean(), wantMean, 1e-10*(wantMean+1)) {
			t.Errorf("n=%d q=%v: mean %v want %v", tc.n, tc.q, p.Mean(), wantMean)
		}
		wantVar := wantMean * (1 - tc.q)
		if !almost(p.Variance(), wantVar, 1e-9*(wantVar+1)) {
			t.Errorf("n=%d q=%v: variance %v want %v", tc.n, tc.q, p.Variance(), wantVar)
		}
	}
	// Degenerate edges.
	p0, _ := BinomialPMF(7, 0)
	p1, _ := BinomialPMF(7, 1)
	if p0.Prob(0) != 1 || p1.Prob(7) != 1 {
		t.Fatal("degenerate binomials")
	}
	if _, err := BinomialPMF(-1, 0.5); err == nil {
		t.Error("negative trials")
	}
	if _, err := BinomialPMF(3, 1.5); err == nil {
		t.Error("bad probability")
	}
}

func TestPMFProbCDFOutOfRange(t *testing.T) {
	p, _ := NewPMF([]float64{0.25, 0.5, 0.25})
	if p.Prob(-1) != 0 || p.Prob(3) != 0 {
		t.Error("out-of-support prob")
	}
	if p.CDF(-1) != 0 {
		t.Error("CDF below support")
	}
	if !almost(p.CDF(1), 0.75, 1e-15) || !almost(p.CDF(99), 1, 1e-15) {
		t.Error("CDF values")
	}
}

func TestPMFSampleMatchesMasses(t *testing.T) {
	p, _ := NewPMF([]float64{0.1, 0.0, 0.6, 0.3})
	r := rng.New(11)
	const trials = 200_000
	counts := make([]int, p.Len())
	for i := 0; i < trials; i++ {
		counts[p.Sample(r)]++
	}
	for k := 0; k < p.Len(); k++ {
		got := float64(counts[k]) / trials
		if !almost(got, p.Prob(k), 0.005) {
			t.Errorf("P(%d): empirical %v vs %v", k, got, p.Prob(k))
		}
	}
	// Truncated tail mass lands on the last count.
	trunc, _ := NewPMF([]float64{0.5, 0.4}) // 0.1 missing
	hits := 0
	for i := 0; i < trials; i++ {
		if trunc.Sample(r) == 1 {
			hits++
		}
	}
	if got := float64(hits) / trials; !almost(got, 0.5, 0.005) {
		t.Errorf("tail assignment: %v want 0.5", got)
	}
}

func TestPMFPGFEdges(t *testing.T) {
	p, _ := NewPMF([]float64{0.25, 0.5, 0.25})
	if got := p.PGF(1); !almost(got, 1, 1e-15) {
		t.Errorf("PGF(1) = %v", got)
	}
	if got := p.PGF(0); got != 0.25 {
		t.Errorf("PGF(0) = %v", got)
	}
}

package dist

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// testRand returns the test stream for seed: math/rand's generator seeded
// with rng.SplitMix64(seed).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(rng.SplitMix64(seed))))
}

// pmfMass returns a PMF's total stored mass.
func pmfMass(p PMF) float64 {
	mass := 0.0
	for _, v := range p.P {
		mass += v
	}
	return mass
}

// poissonMasses returns the Poisson(lambda) masses, truncated once the
// upper tail drops below tol.
func poissonMasses(lambda, tol float64) []float64 {
	var p []float64
	for k := 0; ; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		mass := math.Exp(-lambda + float64(k)*math.Log(lambda) - lg)
		p = append(p, mass)
		// Once k+1 ≥ 2λ the term ratio λ/(k+1) is at most 1/2, so the
		// remaining tail is below 2·mass.
		if float64(k+1) >= 2*lambda && 2*mass < tol {
			return p
		}
	}
}

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
	if mass := pmfMass(p); p.Len() != 3 || !almost(mass, 1, 1e-15) {
		t.Fatalf("len %d mass %v", p.Len(), mass)
	}
}

func TestPoissonPMFMassAndMoments(t *testing.T) {
	for _, lambda := range []float64{0.3, 2, 15, 80} {
		p, err := NewPMF(poissonMasses(lambda, 1e-14))
		if err != nil {
			t.Fatal(err)
		}
		// Closed-form PGF: exp(λ(z-1)).
		for _, z := range []float64{0.1, 0.531, 0.95} {
			want := math.Exp(lambda * (z - 1))
			if got := p.PGF(z); math.Abs(got-want)/want > 1e-10 {
				t.Errorf("lambda=%v PGF(%v) = %v want %v", lambda, z, got, want)
			}
		}
	}
}

func TestPMFProbCDFOutOfRange(t *testing.T) {
	p, _ := NewPMF([]float64{0.25, 0.5, 0.25})
	if p.Prob(-1) != 0 || p.Prob(3) != 0 {
		t.Error("out-of-support prob")
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

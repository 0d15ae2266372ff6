package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewForwardRecurrenceValidation(t *testing.T) {
	if _, err := NewForwardRecurrence(nil); err == nil {
		t.Error("nil spacing")
	}
	if _, err := NewForwardRecurrence(Exponential{Rate: -1}); err == nil {
		t.Error("non-positive mean")
	}
}

// The exponential law is memoryless: its stationary forward recurrence is
// the law itself, so the sampler's CDF must reproduce the exponential CDF.
func TestForwardRecurrenceExponentialMemoryless(t *testing.T) {
	e := Exponential{Rate: 0.25}
	fr, err := NewForwardRecurrence(e)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance bounds the linear-interpolation error of the 4096-cell table.
	for _, x := range []float64{0.5, 2, 4, 10, 30} {
		if got, want := fr.table.At(x), e.CDF(x); !almost(got, want, 2e-5) {
			t.Errorf("G(%v) = %v want %v", x, got, want)
		}
	}
}

// Deterministic pitch V: the stationary first gap is uniform on [0, V].
func TestForwardRecurrenceDeterministicUniform(t *testing.T) {
	fr, err := NewForwardRecurrence(Deterministic{V: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.4, 1, 2.2, 3.9} {
		if got := fr.table.At(x); !almost(got, x/4, 1e-6) {
			t.Errorf("G(%v) = %v want %v", x, got, x/4)
		}
	}
	r := testRand(21)
	for i := 0; i < 1000; i++ {
		x := fr.Sample(r)
		if x < 0 || x > 4 {
			t.Fatalf("sample %v outside [0, 4]", x)
		}
	}
}

// Sampling must match the stationary density (1-F(x))/μ: compare the
// empirical CDF with the exact closed-form equilibrium CDF I(x)/μ for the
// calibrated pitch-style law.
func TestForwardRecurrenceSamplingMatchesStationaryCDF(t *testing.T) {
	tn, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewForwardRecurrence(tn)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand(33)
	const trials = 300_000
	samples := make([]float64, trials)
	mean := 0.0
	for i := range samples {
		samples[i] = fr.Sample(r)
		mean += samples[i]
	}
	mean /= trials
	// E[forward recurrence] = μ(1+cv²)/2 for the stationary law.
	cv := tn.StdDev() / tn.Mean()
	wantMean := tn.Mean() * (1 + cv*cv) / 2
	if math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Errorf("sample mean %v want %v", mean, wantMean)
	}
	for _, x := range []float64{0.5, 1, 2, 4, 8, 16, 30} {
		hits := 0
		for _, s := range samples {
			if s <= x {
				hits++
			}
		}
		got := float64(hits) / trials
		want := tn.IntegratedSurvival(x) / tn.Mean()
		se := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 5*se+1e-4 {
			t.Errorf("G(%v): empirical %v vs exact %v (se %v)", x, got, want, se)
		}
	}
}

// quadratureOnly hides the SurvivalIntegrator fast path so the Simpson
// fallback table is exercised and must agree with the exact one.
type quadratureOnly struct{ tn TruncNormal }

func (q quadratureOnly) Mean() float64               { return q.tn.Mean() }
func (q quadratureOnly) StdDev() float64             { return q.tn.StdDev() }
func (q quadratureOnly) CDF(x float64) float64       { return q.tn.CDF(x) }
func (q quadratureOnly) Quantile(p float64) float64  { return q.tn.Quantile(p) }
func (q quadratureOnly) Sample(r *rand.Rand) float64 { return q.tn.Sample(r) }

func TestForwardRecurrenceQuadratureFallbackMatchesExact(t *testing.T) {
	tn, err := TruncNormalWithMean(4, 9.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var spacing Continuous = quadratureOnly{tn}
	if _, ok := spacing.(SurvivalIntegrator); ok {
		t.Fatal("wrapper must not expose the fast path")
	}
	exact, err := NewForwardRecurrence(tn)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := NewForwardRecurrence(spacing)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 2, 4, 10, 25} {
		if a, b := exact.table.At(x), fallback.table.At(x); !almost(a, b, 1e-6) {
			t.Errorf("G(%v): exact %v vs quadrature %v", x, a, b)
		}
	}
}

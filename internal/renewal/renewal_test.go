package renewal

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/rng"
	"github.com/cnfet/yieldlab/internal/stat"
)

// testRand returns the test stream for seed: math/rand/v2's PCG seeded
// with (rng.SplitMix64(seed), 0).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(rng.SplitMix64(seed), 0))
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// pmfMass returns the total stored mass of p.
func pmfMass(p dist.PMF) float64 {
	total := 0.0
	for _, v := range p.P {
		total += v
	}
	return total
}

// pmfMean returns Σ k·P[k].
func pmfMean(p dist.PMF) float64 {
	m := 0.0
	for k, v := range p.P {
		m += float64(k) * v
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil spacing")
	}
	if _, err := New(dist.Exponential{Rate: 1}, WithStep(-1)); err == nil {
		t.Error("negative step")
	}
	if _, err := New(dist.Exponential{Rate: 1}, WithStep(10), WithMaxWidth(5)); err == nil {
		t.Error("max width below step")
	}
	if _, err := New(dist.Exponential{Rate: 1}, WithStep(0.5)); err == nil {
		t.Error("step too coarse for mean 1")
	}
}

func TestWidthValidation(t *testing.T) {
	m, err := New(dist.Exponential{Rate: 0.25}, WithStep(0.1), WithMaxWidth(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CountPMF(-1); err == nil {
		t.Error("negative width")
	}
	if _, err := m.CountPMF(0); err == nil {
		t.Error("zero width")
	}
	if _, err := m.CountPMF(51); err == nil {
		t.Error("width above max")
	}
}

// Exponential spacing + equilibrium start = Poisson process: the count in a
// window of width W is exactly Poisson(W/μ).
func TestExponentialGivesPoisson(t *testing.T) {
	mu := 4.0
	m, err := New(dist.Exponential{Rate: 1 / mu}, WithStep(0.02), WithMaxWidth(80))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{8, 20, 60} {
		pmf, err := m.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		lambda := w / mu
		for k := 0; k < 3*int(lambda)+10; k++ {
			lg, _ := math.Lgamma(float64(k + 1))
			want := math.Exp(-lambda + float64(k)*math.Log(lambda) - lg)
			got := pmf.Prob(k)
			if math.Abs(got-want) > 2e-3*math.Max(want, 1e-3) && math.Abs(got-want) > 5e-4 {
				t.Errorf("W=%v: P(N=%d) = %.6g want %.6g", w, k, got, want)
			}
		}
		// PGF cross-check: Poisson PGF is exp(λ(z-1)).
		for _, z := range []float64{0.2, 0.531, 0.9} {
			want := math.Exp(lambda * (z - 1))
			if got := pmf.PGF(z); math.Abs(got-want)/want > 0.02 {
				t.Errorf("W=%v PGF(%v) = %.6g want %.6g", w, z, got, want)
			}
		}
	}
}

// Deterministic pitch S: in equilibrium the count is ⌊W/S⌋ or ⌊W/S⌋+1 with
// P(+1) = frac(W/S), and E[N] = W/S exactly.
func TestDeterministicPitch(t *testing.T) {
	s := 4.0
	m, err := New(dist.Deterministic{V: s}, WithStep(0.05), WithMaxWidth(200))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w    float64
		base int
		pUp  float64
	}{
		{10, 2, 0.5},
		{12, 3, 0.0},
		{13, 3, 0.25},
		{155, 38, 0.75},
	} {
		pmf, err := m.CountPMF(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(pmfMean(pmf), tc.w/s, 0.02) {
			t.Errorf("W=%v mean %v want %v", tc.w, pmfMean(pmf), tc.w/s)
		}
		pBase := pmf.Prob(tc.base)
		pUp := pmf.Prob(tc.base + 1)
		if !almost(pBase, 1-tc.pUp, 0.03) || !almost(pUp, tc.pUp, 0.03) {
			t.Errorf("W=%v: P(%d)=%v P(%d)=%v want %v/%v",
				tc.w, tc.base, pBase, tc.base+1, pUp, 1-tc.pUp, tc.pUp)
		}
	}
}

// Equilibrium renewal theory: E[N(W)] = W/μ exactly, for any pitch law.
func TestEquilibriumMeanExact(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 3.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tn, WithStep(0.05), WithMaxWidth(200))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{10, 40, 103, 155} {
		pmf, err := m.CountPMF(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := pmfMean(pmf); !almost(got, w/4, 0.02*w/4+0.02) {
			t.Errorf("W=%v: E[N] = %v want %v", w, got, w/4)
		}
		if !almost(pmfMass(pmf), 1, 1e-9) {
			t.Errorf("W=%v: mass %v", w, pmfMass(pmf))
		}
	}
}

// Monte Carlo cross-check: simulate the renewal process directly and compare
// the empirical count distribution with the analytic PMF.
func TestCountPMFMatchesSimulation(t *testing.T) {
	tn, err := dist.TruncNormalWithMean(4, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tn, WithStep(0.05), WithMaxWidth(80))
	if err != nil {
		t.Fatal(err)
	}
	const w = 30.0
	pmf, err := m.CountPMF(w)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand(77)
	const trials = 60_000
	counts := map[int]int{}
	var welford stat.Welford
	for i := 0; i < trials; i++ {
		// Equilibrium start: drop the window far from the origin of a long
		// simulated track (burn-in of 100 pitches ≈ stationarity).
		x := 0.0
		for j := 0; j < 100; j++ {
			x += tn.Sample(r)
		}
		// Window starts uniformly inside the current pitch interval: walk to
		// the first point beyond a uniformly chosen origin.
		origin := x + r.Float64()*20
		for x < origin {
			x += tn.Sample(r)
		}
		n := 0
		for x < origin+w {
			n++
			x += tn.Sample(r)
		}
		counts[n]++
		welford.Add(float64(n))
	}
	if !almost(welford.Mean(), pmfMean(pmf), 0.05) {
		t.Errorf("MC mean %v vs analytic %v", welford.Mean(), pmfMean(pmf))
	}
	for k := 0; k < 16; k++ {
		got := float64(counts[k]) / trials
		want := pmf.Prob(k)
		if math.Abs(got-want) > 0.012 {
			t.Errorf("P(N=%d): MC %.4f vs analytic %.4f", k, got, want)
		}
	}
}

// TestPGFsIntoMatchesSingle pins the batched pF read: PGFsInto validates
// every width before it sweeps, and its values carry the bits of each
// width's count PMF on a separately swept model.
func TestPGFsIntoMatchesSingle(t *testing.T) {
	tn, _ := dist.TruncNormalWithMean(4, 3, 1)
	a, _ := New(tn, WithStep(0.1), WithMaxWidth(120))
	b, _ := New(tn, WithStep(0.1), WithMaxWidth(120))
	ws := []float64{10, 55, 110}
	got := make([]float64, len(ws))
	if err := a.PGFsInto(got, []float64{10, 55, 121}, 0.531); err == nil {
		t.Fatal("a width past the grid should fail")
	}
	if n := a.Sweeps(); n != 0 {
		t.Fatalf("an invalid later width ran %d sweeps, want 0", n)
	}
	for _, z := range []float64{0.531, 0.33, 0} {
		if err := a.PGFsInto(got, ws, z); err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			single, err := b.CountPMF(w)
			if err != nil {
				t.Fatal(err)
			}
			if want := single.PGF(z); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("W=%v z=%v: PGFsInto %v, count PMF %v", w, z, got[i], want)
			}
		}
	}
	if err := a.PGFsInto(got[:2], ws, 0.531); err == nil {
		t.Fatal("a short dst should fail")
	}
}

func TestCacheStability(t *testing.T) {
	tn, _ := dist.TruncNormalWithMean(4, 3, 1)
	m, _ := New(tn, WithStep(0.1), WithMaxWidth(60))
	p1, err := m.CountPMF(30)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.CountPMF(30)
	if err != nil {
		t.Fatal(err)
	}
	if &p1.P[0] != &p2.P[0] {
		t.Error("expected cached PMF to be reused")
	}
	// Nearby widths quantize to different grid points.
	p3, err := m.CountPMF(30.3)
	if err != nil {
		t.Fatal(err)
	}
	if pmfMean(p3) <= pmfMean(p1) {
		t.Error("wider window should hold more CNTs on average")
	}
}

func TestSubGridWidth(t *testing.T) {
	tn, _ := dist.TruncNormalWithMean(4, 3, 1)
	m, _ := New(tn, WithStep(0.1), WithMaxWidth(60))
	pmf, err := m.CountPMF(0.04) // rounds to grid index 0
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Prob(0) != 1 {
		t.Fatalf("sub-grid window should be empty w.p. 1, got %v", pmf.P)
	}
}

// Property: count PMFs normalize, means grow with width, and P(N=0) shrinks
// with width.
func TestQuickCountMonotonicity(t *testing.T) {
	tn, _ := dist.TruncNormalWithMean(4, 3.0, 1)
	m, err := New(tn, WithStep(0.1), WithMaxWidth(150))
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		w1 := 5 + float64(raw%120)
		w2 := w1 + 10
		p1, err1 := m.CountPMF(w1)
		p2, err2 := m.CountPMF(w2)
		if err1 != nil || err2 != nil {
			return false
		}
		return almost(pmfMass(p1), 1, 1e-9) &&
			pmfMean(p2) > pmfMean(p1) &&
			p2.Prob(0) <= p1.Prob(0)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

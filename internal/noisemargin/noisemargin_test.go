package noisemargin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rng"
)

// testRand returns the test stream for seed: math/rand's generator seeded
// with rng.SplitMix64(seed).
func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(rng.SplitMix64(seed))))
}

func paperParams() Params {
	return Params{
		PMetallic:       0.33,
		PRemoveMetallic: 0.9999,
		PRemoveSemi:     0.30,
		RatioThreshold:  DefaultRatioThreshold,
	}
}

func countAt(t *testing.T, w float64) dist.PMF {
	t.Helper()
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	m, err := renewal.New(pitch, renewal.WithStep(0.1), renewal.WithMaxWidth(180))
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := m.CountPMF(w)
	if err != nil {
		t.Fatal(err)
	}
	return pmf
}

func TestParamsValidate(t *testing.T) {
	if err := paperParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{PMetallic: -0.1},
		{PMetallic: 0.3, PRemoveMetallic: 1.5},
		{PMetallic: 0.3, PRemoveSemi: math.NaN()},
		{PMetallic: 0.3, RatioThreshold: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// sampleCount draws one count from pmf by inverse transform, giving any
// truncated tail mass to the largest count.
func sampleCount(pmf dist.PMF, r *rand.Rand) int {
	u := r.Float64()
	acc := 0.0
	for k, v := range pmf.P {
		acc += v
		if u < acc {
			return k
		}
	}
	return len(pmf.P) - 1
}

func TestViolationProbAgainstMC(t *testing.T) {
	// Inflated hazard so plain Monte Carlo can verify the trinomial sum.
	p := Params{PMetallic: 0.33, PRemoveMetallic: 0.6, PRemoveSemi: 0.3, RatioThreshold: 0.25}
	pmf := countAt(t, 40)
	want, err := ViolationProb(pmf, p)
	if err != nil {
		t.Fatal(err)
	}
	r := testRand(17)
	const trials = 200_000
	hits := 0
	for i := 0; i < trials; i++ {
		n := sampleCount(pmf, r)
		m, s := 0, 0
		for j := 0; j < n; j++ {
			u := r.Float64()
			switch {
			case u < 0.33:
				if r.Float64() >= 0.6 { // metallic survives
					m++
				}
			default:
				if r.Float64() >= 0.3 { // semiconducting survives
					s++
				}
			}
		}
		if m >= 1 && s >= 1 && float64(m) > 0.25*float64(s) {
			hits++
		}
	}
	got := float64(hits) / trials
	se := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 5*se+1e-4 {
		t.Fatalf("MC %v vs analytic %v (se %v)", got, want, se)
	}
}

func TestPerfectRemovalNoViolations(t *testing.T) {
	p := paperParams()
	p.PRemoveMetallic = 1
	v, err := ViolationProb(countAt(t, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("pRm=1 should eliminate noise hazard, got %v", v)
	}
	// No metallic tubes at all: same.
	p = paperParams()
	p.PMetallic = 0
	v, err = ViolationProb(countAt(t, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("pm=0 should eliminate noise hazard, got %v", v)
	}
}

func TestViolationMonotoneInPRm(t *testing.T) {
	pmf := countAt(t, 100)
	prev := 1.0
	for _, pRm := range []float64{0.9, 0.99, 0.999, 0.9999} {
		p := paperParams()
		p.PRemoveMetallic = pRm
		v, err := ViolationProb(pmf, p)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("violation prob should fall with pRm: %v at %v", v, pRm)
		}
		prev = v
	}
}

func TestChipNoiseYield(t *testing.T) {
	y, err := ChipNoiseYield(1e-9, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y-math.Exp(-0.1)) > 1e-9 {
		t.Fatalf("yield: %v", y)
	}
	if y, _ := ChipNoiseYield(0, 1e8); y != 1 {
		t.Fatal("no hazard")
	}
	if y, _ := ChipNoiseYield(1, 10); y != 0 {
		t.Fatal("certain hazard")
	}
	if _, err := ChipNoiseYield(-0.1, 1); err == nil {
		t.Error("negative prob")
	}
	if _, err := ChipNoiseYield(0.1, -1); err == nil {
		t.Error("negative gates")
	}
}

// The paper's quoted requirement (from [Zhang 09b]): practical VLSI needs
// pRm beyond 99.99%. At the 45 nm operating point (W≈155 nm devices,
// 1e8 of them, 90% yield) the model must land in that regime.
func TestRequiredPRmReproducesPaperClaim(t *testing.T) {
	pmf := countAt(t, 155)
	p := paperParams()
	req, err := RequiredPRm(pmf, p, 1e8, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if req < 0.999 || req > 0.9999999 {
		t.Fatalf("required pRm = %.8f, want in the ≈99.99%% regime", req)
	}
	// And the solution actually meets the target.
	p.PRemoveMetallic = req * 1.0000001
	v, err := ViolationProb(pmf, p)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ChipNoiseYield(v, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if y < 0.899 {
		t.Fatalf("solution yield %v below target", y)
	}
}

func TestRequiredPRmEdges(t *testing.T) {
	pmf := countAt(t, 155)
	p := paperParams()
	// Tiny chip: no removal needed at a loose threshold.
	p.RatioThreshold = 10
	req, err := RequiredPRm(pmf, p, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if req != 0 {
		t.Fatalf("loose threshold should need no removal, got %v", req)
	}
	if _, err := RequiredPRm(pmf, p, 0, 0.9); err == nil {
		t.Error("zero gates")
	}
	if _, err := RequiredPRm(pmf, p, 10, 1); err == nil {
		t.Error("yield 1")
	}
	bad := p
	bad.PMetallic = 2
	if _, err := RequiredPRm(pmf, bad, 10, 0.9); err == nil {
		t.Error("invalid params")
	}
}

// Property: violation probability increases with pm and decreases with the
// ratio threshold.
func TestQuickViolationMonotonicity(t *testing.T) {
	pmf := countAt(t, 80)
	f := func(raw uint16) bool {
		pm := 0.05 + float64(raw%40)/100
		base := Params{PMetallic: pm, PRemoveMetallic: 0.99, PRemoveSemi: 0.3, RatioThreshold: 0.2}
		v1, e1 := ViolationProb(pmf, base)
		more := base
		more.PMetallic = pm + 0.1
		v2, e2 := ViolationProb(pmf, more)
		loose := base
		loose.RatioThreshold = 0.6
		v3, e3 := ViolationProb(pmf, loose)
		return e1 == nil && e2 == nil && e3 == nil &&
			v2 >= v1-1e-15 && v3 <= v1+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

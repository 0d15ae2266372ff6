package yield

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/widthdist"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWeightedYield(t *testing.T) {
	y, err := WeightedYield([]float64{3.03e-9}, []float64{3.3e7})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(y, math.Exp(-3.03e-9*3.3e7), 1e-9) {
		t.Fatalf("weighted yield: %v", y)
	}
	if _, err := WeightedYield([]float64{0.1}, nil); err == nil {
		t.Fatal("length mismatch")
	}
	if _, err := WeightedYield([]float64{0.1}, []float64{-1}); err == nil {
		t.Fatal("negative count")
	}
	if y, _ := WeightedYield([]float64{1}, []float64{2}); y != 0 {
		t.Fatal("certain failure")
	}
	if y, _ := WeightedYield([]float64{1}, []float64{0}); y != 1 {
		t.Fatal("certain failure with zero count is harmless")
	}
}

func TestRequiredDevicePF(t *testing.T) {
	// Paper case study: Mmin = 33e6, Yd = 0.9 → ≈ 3.03e-9 (the paper's
	// first-order value 3.0e-9; the exact log form is ~5% larger).
	req, err := RequiredDevicePF(33e6, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if req < 3.0e-9 || req > 3.3e-9 {
		t.Fatalf("required pF: %v", req)
	}
	if _, err := RequiredDevicePF(0, 0.9); err == nil {
		t.Fatal("zero Mmin")
	}
	if _, err := RequiredDevicePF(10, 1.0); err == nil {
		t.Fatal("yield 1")
	}
	if _, err := RequiredDevicePF(10, 0); err == nil {
		t.Fatal("yield 0")
	}
}

var (
	sharedModelOnce sync.Once
	sharedModel     *device.FailureModel
	sharedModelErr  error
)

func paperProblem(t *testing.T, relax float64) *Problem {
	t.Helper()
	sharedModelOnce.Do(func() {
		sharedModel, sharedModelErr = device.NewCalibratedModel(device.WorstCorner(),
			renewal.WithStep(0.05), renewal.WithMaxWidth(250))
	})
	if sharedModelErr != nil {
		t.Fatal(sharedModelErr)
	}
	return &Problem{
		Model:        sharedModel,
		Widths:       widthdist.OpenRISC45(),
		M:            1e8,
		DesiredYield: 0.90,
		RelaxFactor:  relax,
	}
}

// The paper's Section 2 case study: Wmin ≈ 155 nm for the uncorrelated
// baseline, with Mmin the two left histogram bins (33%).
func TestSimplifiedWminPaperCaseStudy(t *testing.T) {
	p := paperProblem(t, 1)
	res, err := SimplifiedWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wmin < 150 || res.Wmin > 160 {
		t.Fatalf("Wmin = %v, want ≈ 155", res.Wmin)
	}
	if !almost(res.MminShare, 0.33, 1e-9) {
		t.Fatalf("Mmin share = %v, want 0.33", res.MminShare)
	}
	if res.Yield < 0.89 {
		t.Fatalf("achieved yield %v below target", res.Yield)
	}
}

// A warm Wmin solve on the 9-bin OpenRISC law allocates nothing: the
// model's memo answers every probe and yieldAt keeps its scratch on the
// stack. Both solvers run, since ExactWmin calls yieldAt per probe.
func TestWminWarmSolveAllocatesNothing(t *testing.T) {
	p := paperProblem(t, 1)
	for _, solve := range []func(*Problem) (Result, error){SimplifiedWmin, ExactWmin} {
		if _, err := solve(p); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = solve(p) }); allocs != 0 {
			t.Fatalf("warm Wmin solve allocates %v times", allocs)
		}
	}
}

// The Section 3 result: relaxing by ~353× gives Wmin ≈ 103-110 nm.
func TestSimplifiedWminRelaxed(t *testing.T) {
	p := paperProblem(t, 353)
	res, err := SimplifiedWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wmin < 100 || res.Wmin > 115 {
		t.Fatalf("relaxed Wmin = %v, want ≈ 103-110", res.Wmin)
	}
	base, err := SimplifiedWmin(paperProblem(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Wmin-res.Wmin < 40 {
		t.Fatalf("correlation should buy ≥40 nm of Wmin: %v -> %v", base.Wmin, res.Wmin)
	}
}

func TestExactWminAgreesWithSimplified(t *testing.T) {
	p := paperProblem(t, 1)
	simp, err := SimplifiedWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	// The simplified solution neglects non-minimum devices, so the exact
	// threshold can only be larger, and only slightly (the paper's
	// justification for Eq. 2.5).
	if exact.Wmin < simp.Wmin-1e-6 {
		t.Fatalf("exact Wmin %v below simplified %v", exact.Wmin, simp.Wmin)
	}
	if exact.Wmin-simp.Wmin > 10 {
		t.Fatalf("exact %v and simplified %v should agree within a few nm", exact.Wmin, simp.Wmin)
	}
	if exact.Yield < p.DesiredYield {
		t.Fatalf("exact solution misses the target: %v", exact.Yield)
	}
}

func TestExactWminNoUpsizingNeeded(t *testing.T) {
	p := paperProblem(t, 1)
	p.M = 10 // tiny chip: even minimum devices are fine
	res, err := ExactWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wmin > p.Widths.MinWidth() {
		t.Fatalf("tiny chip should need no upsizing, got Wmin=%v", res.Wmin)
	}
	if res.Yield < p.DesiredYield {
		t.Fatalf("yield %v", res.Yield)
	}
}

func TestProblemValidation(t *testing.T) {
	good := paperProblem(t, 1)
	cases := []func(*Problem){
		func(p *Problem) { p.Model = nil },
		func(p *Problem) { p.Widths = nil },
		func(p *Problem) { p.M = 0 },
		func(p *Problem) { p.DesiredYield = 1 },
		func(p *Problem) { p.DesiredYield = 0 },
		func(p *Problem) { p.RelaxFactor = 0.5 },
	}
	for i, mutate := range cases {
		p := *good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// Property: yield decreases as M grows and increases with the relax factor.
func TestQuickYieldMonotonicity(t *testing.T) {
	p := paperProblem(t, 1)
	res1, err := SimplifiedWmin(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(mRaw, relaxRaw uint16) bool {
		m := 1e6 * float64(1+mRaw%1000)
		relax := 1 + float64(relaxRaw%500)
		pa := *p
		pa.M = m
		ra, err := SimplifiedWmin(&pa)
		if err != nil {
			return false
		}
		pb := pa
		pb.RelaxFactor = relax
		rb, err := SimplifiedWmin(&pb)
		if err != nil {
			return false
		}
		// More devices need a wider Wmin than fewer; relaxation shrinks it.
		return rb.Wmin <= ra.Wmin+1e-9 && ra.Wmin <= res1.Wmin+30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

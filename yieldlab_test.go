package yieldlab_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab"
)

// TestFacadeQuerySession exercises the declarative QuerySpec/Session API
// end to end through the public facade: parse a JSON sweep spec, evaluate
// it, and check the numbers agree with the direct model constructors.
func TestFacadeQuerySession(t *testing.T) {
	params := yieldlab.DefaultParams()
	params.GridStepNM = 0.1
	params.MaxWidthNM = 200
	session, err := yieldlab.NewSession(yieldlab.SessionOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := yieldlab.ParseQuerySpec([]byte(
		`{"kind": "pf", "width_nm": 155, "sweep": {"corners": ["worst", "best"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	results, err := session.EvaluateAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	model, err := yieldlab.NewDeviceModelWithRange(yieldlab.WorstCorner(), params.GridStepNM, params.MaxWidthNM)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.FailureProb(155)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].PF.PF != want {
		t.Fatalf("session pF %g != model pF %g", results[0].PF.PF, want)
	}
	if results[0].Fingerprint == results[1].Fingerprint {
		t.Fatal("distinct corners share a fingerprint")
	}
}

func TestFacadeDeviceModel(t *testing.T) {
	m, err := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.FailureProb(155)
	if err != nil {
		t.Fatal(err)
	}
	if p < 2e-9 || p > 5e-9 {
		t.Fatalf("pF(155) = %v, want ≈ 3e-9", p)
	}
	if got := m.PerCNTFailure(); math.Abs(got-0.531) > 1e-12 {
		t.Fatalf("pf = %v", got)
	}
	if len(yieldlab.PaperCorners()) != 3 {
		t.Fatal("corners")
	}
}

func TestFacadeDeviceModelWithRange(t *testing.T) {
	m, err := yieldlab.NewDeviceModelWithRange(yieldlab.WorstCorner(), 0.2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailureProb(50); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FailureProb(100); err == nil {
		t.Fatal("beyond custom range should error")
	}
}

func TestFacadeSizing(t *testing.T) {
	m, err := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
	if err != nil {
		t.Fatal(err)
	}
	problem := &yieldlab.SizingProblem{
		Model:        m,
		Widths:       yieldlab.OpenRISCWidths(),
		M:            1e8,
		DesiredYield: 0.9,
		RelaxFactor:  1,
	}
	base, err := yieldlab.SimplifiedWmin(problem)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := yieldlab.MRmin(200_000, 1.8)
	if err != nil {
		t.Fatal(err)
	}
	problem.RelaxFactor = mr
	opt, err := yieldlab.SimplifiedWmin(problem)
	if err != nil {
		t.Fatal(err)
	}
	if base.Wmin-opt.Wmin < 40 {
		t.Fatalf("correlation benefit too small: %v -> %v", base.Wmin, opt.Wmin)
	}
	budget, err := yieldlab.RequiredDevicePF(3.3e7, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if budget < 3e-9 || budget > 3.3e-9 {
		t.Fatalf("budget: %v", budget)
	}
	y, err := yieldlab.CorrelatedYield(1e5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if y < 0.9 || y > 0.91 {
		t.Fatalf("correlated yield: %v", y)
	}
}

func TestFacadeLibrariesAndAlignment(t *testing.T) {
	lib, err := yieldlab.NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := yieldlab.AlignLibrary(lib, yieldlab.AlignOptions{WminNM: 109, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsWithPenalty != 4 {
		t.Fatalf("impacted: %d", rep.CellsWithPenalty)
	}
	cell, err := lib.Cell("AOI222_X1")
	if err != nil {
		t.Fatal(err)
	}
	_, change, err := yieldlab.AlignCell(cell, yieldlab.AlignOptions{WminNM: 109, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(change.Penalty-0.0909) > 0.01 {
		t.Fatalf("AOI222_X1 penalty: %v", change.Penalty)
	}
}

func TestFacadeOffsets(t *testing.T) {
	od, err := yieldlab.NewOffsetDist([]float64{0, 20}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if od.DistinctCount() != 2 {
		t.Fatal("distinct")
	}
	if yieldlab.AlignedOffsets().Span() != 0 {
		t.Fatal("aligned span")
	}
}

func TestFacadeNoiseMargin(t *testing.T) {
	m, err := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
	if err != nil {
		t.Fatal(err)
	}
	pmf, err := m.CountModel().CountPMF(155)
	if err != nil {
		t.Fatal(err)
	}
	p := yieldlab.NoiseParams{
		PMetallic: 0.33, PRemoveMetallic: 0.9999, PRemoveSemi: 0.3, RatioThreshold: 0.15,
	}
	v, err := yieldlab.NoiseViolationProb(pmf, p)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 1e-4 {
		t.Fatalf("violation prob: %v", v)
	}
	y, err := yieldlab.ChipNoiseYield(v, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if y <= 0 || y >= 1 {
		t.Fatalf("noise yield: %v", y)
	}
	req, err := yieldlab.RequiredPRm(pmf, p, 1e8, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if req < 0.999 {
		t.Fatalf("required pRm: %v", req)
	}
}

func TestFacadeExperimentNames(t *testing.T) {
	names := yieldlab.ExperimentNames()
	if len(names) != 8 || names[0] != "fig2.1" || names[7] != "table2" {
		t.Fatalf("names: %v", names)
	}
	if yieldlab.DefaultParams().M != 1e8 {
		t.Fatal("default M")
	}
}

// ExampleNewDeviceModel reproduces the Fig. 2.1 anchor point.
func ExampleNewDeviceModel() {
	model, err := yieldlab.NewDeviceModel(yieldlab.WorstCorner())
	if err != nil {
		panic(err)
	}
	pf, _ := model.FailureProb(155)
	fmt.Printf("pf per CNT: %.3f\n", model.PerCNTFailure())
	fmt.Printf("pF(155 nm) within paper band: %v\n", pf > 2e-9 && pf < 5e-9)
	// Output:
	// pf per CNT: 0.531
	// pF(155 nm) within paper band: true
}

// ExampleMRmin shows the Eq. 3.2 headline factor.
func ExampleMRmin() {
	mr, _ := yieldlab.MRmin(200_000, 1.8) // 200 µm CNTs, 1.8 FETs/µm
	fmt.Printf("MRmin = %.0f devices share one CNT span\n", mr)
	// Output:
	// MRmin = 360 devices share one CNT span
}

// ExampleSession_Evaluate estimates a deep-tail row failure probability
// with the rare-event estimator layer: mc_method selects the importance
// sampler and rel_err_target the adaptive stopping rule (DESIGN.md §8).
func ExampleSession_Evaluate() {
	session, err := yieldlab.NewSession(yieldlab.SessionOptions{})
	if err != nil {
		panic(err)
	}
	res, err := session.Evaluate(context.Background(), yieldlab.QuerySpec{
		Kind:         "rowyield",
		Scenario:     "unaligned",
		WidthNM:      155,
		MCMethod:     "tilted",
		RelErrTarget: 0.1,
		// An explicit offset distribution; omit it to use the synthetic
		// 45 nm library's placed offsets.
		Offsets:     []float64{0, 190, 380},
		OffsetProbs: []float64{0.5, 0.25, 0.25},
	})
	if err != nil {
		panic(err)
	}
	ry := res.RowYield
	fmt.Printf("method: %s\n", ry.MCMethod)
	fmt.Printf("rel err within target: %v\n", ry.RelErr > 0 && ry.RelErr <= 0.1)
	fmt.Printf("pRF above aligned floor: %v\n", ry.PRF >= ry.DevicePF)
	// Output:
	// method: tilted
	// rel err within target: true
	// pRF above aligned floor: true
}

// ExampleRowModel_Round runs zero-allocation Monte Carlo rounds by hand:
// the one row-failure estimator (the rareevent layer behind a "rowyield"
// QuerySpec, fixed budget or adaptive) loops exactly this call.
func ExampleRowModel_Round() {
	pitch, err := yieldlab.CalibratedPitch()
	if err != nil {
		panic(err)
	}
	offsets, err := yieldlab.NewOffsetDist([]float64{0, 190, 380}, []float64{0.5, 0.25, 0.25})
	if err != nil {
		panic(err)
	}
	m := &yieldlab.RowModel{
		Pitch:         pitch,
		PerCNTFailure: 0.531,   // worst corner pf
		WidthNM:       142.7,   // minimum device width
		LCNTNM:        200_000, // 200 µm correlated rows
		DensityPerUM:  1.8,
		Offsets:       offsets,
	}
	if err := m.Prepare(); err != nil {
		panic(err)
	}
	st := m.NewRoundState()
	r := rand.New(rand.NewSource(7))
	var sum float64
	for i := 0; i < 1000; i++ {
		p, err := m.Round(r, yieldlab.DirectionalUnaligned, st)
		if err != nil {
			panic(err)
		}
		sum += p
	}
	// Each round returns the exact conditional row failure probability of
	// one sampled track realization; their mean estimates pRF ≈ 2e-7.
	fmt.Printf("1000-round mean is a probability: %v\n", sum/1000 > 0 && sum/1000 < 1)
	// Output:
	// 1000-round mean is a probability: true
}

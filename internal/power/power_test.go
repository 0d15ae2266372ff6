package power

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/tech"
	"github.com/cnfet/yieldlab/internal/widthdist"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCapModelValidate(t *testing.T) {
	if err := DefaultCapModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (CapModel{AttoFaradPerNM: 0}).Validate(); err == nil {
		t.Error("zero slope")
	}
	if err := (CapModel{AttoFaradPerNM: 1, FringeAttoFarad: -1}).Validate(); err == nil {
		t.Error("negative fringe")
	}
}

func TestUpsizePenaltyZeroFringe(t *testing.T) {
	// With zero fringe, penalty equals the width-mean ratio exactly.
	d, _ := widthdist.New([]float64{10, 30}, []float64{0.5, 0.5})
	c := DefaultCapModel()
	p, err := c.UpsizePenalty(d, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Upsized mean = (20+30)/2 = 25 vs 20 → 25%.
	if !almost(p, 0.25, 1e-12) {
		t.Fatalf("penalty: %v", p)
	}
	// Threshold below support: no penalty.
	p, _ = c.UpsizePenalty(d, 5)
	if p != 0 {
		t.Fatalf("no-op penalty: %v", p)
	}
}

func TestFringeSoftensPenalty(t *testing.T) {
	d, _ := widthdist.New([]float64{10, 30}, []float64{0.5, 0.5})
	noFringe := CapModel{AttoFaradPerNM: 1}
	fringe := CapModel{AttoFaradPerNM: 1, FringeAttoFarad: 20}
	p0, _ := noFringe.UpsizePenalty(d, 20)
	p1, _ := fringe.UpsizePenalty(d, 20)
	if p1 >= p0 {
		t.Fatalf("fringe should soften relative penalty: %v vs %v", p1, p0)
	}
}

func TestErrors(t *testing.T) {
	c := DefaultCapModel()
	if _, err := c.MeanGateCap(nil, 0); err == nil {
		t.Error("nil distribution")
	}
	if _, err := c.ScalingSweep(nil, 100, tech.PaperNodes()); err == nil {
		t.Error("nil distribution in sweep")
	}
	d := widthdist.OpenRISC45()
	if _, err := c.ScalingSweep(d, 0, tech.PaperNodes()); err == nil {
		t.Error("zero threshold")
	}
	bad := CapModel{AttoFaradPerNM: -1}
	if _, err := bad.UpsizePenalty(d, 100); err == nil {
		t.Error("invalid model")
	}
}

// The Fig. 2.2b regression: penalty explodes from ≈11% at 45 nm to ≈105% at
// 16 nm for the unoptimized threshold (155 nm).
func TestScalingSweepPaperShape(t *testing.T) {
	c := DefaultCapModel()
	sweep, err := c.ScalingSweep(widthdist.OpenRISC45(), 155, tech.PaperNodes())
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 4 {
		t.Fatalf("sweep length: %d", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Penalty <= sweep[i-1].Penalty {
			t.Fatalf("penalty must grow as nodes shrink: %+v", sweep)
		}
	}
	if p := sweep[0].Penalty; p < 0.08 || p > 0.15 {
		t.Errorf("45 nm penalty %v, want ≈ 0.11", p)
	}
	if p := sweep[3].Penalty; p < 0.90 || p > 1.25 {
		t.Errorf("16 nm penalty %v, want ≈ 1.05", p)
	}
}

// The Fig. 3.3 regression: the optimized threshold nearly eliminates the
// 45 nm penalty and at least halves it at every node.
func TestOptimizedPenaltyShape(t *testing.T) {
	c := DefaultCapModel()
	d := widthdist.OpenRISC45()
	nodes := tech.PaperNodes()
	before, err := c.ScalingSweep(d, 155, nodes)
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.ScalingSweep(d, 109, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Penalty > 0.05 {
		t.Errorf("45 nm optimized penalty %v, want ≈ eliminated (<5%%)", after[0].Penalty)
	}
	for i := range nodes {
		if after[i].Penalty > 0.62*before[i].Penalty {
			t.Errorf("%s: optimized %v vs %v should be well below",
				nodes[i].Name, after[i].Penalty, before[i].Penalty)
		}
	}
}

// Property: penalty is non-negative, and monotone non-decreasing in wt.
func TestQuickPenaltyMonotone(t *testing.T) {
	c := DefaultCapModel()
	d := widthdist.OpenRISC45()
	f := func(raw uint16) bool {
		wt := 1 + float64(raw%400)
		p1, e1 := c.UpsizePenalty(d, wt)
		p2, e2 := c.UpsizePenalty(d, wt+13)
		return e1 == nil && e2 == nil && p1 >= -1e-12 && p2 >= p1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

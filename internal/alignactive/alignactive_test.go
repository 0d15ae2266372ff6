package alignactive

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cnfet/yieldlab/internal/celllib"
)

func nangate(t *testing.T) *celllib.Library {
	t.Helper()
	lib, err := celllib.NangateLike45()
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestOptionsValidate(t *testing.T) {
	if (Options{WminNM: 109, Bands: 1}).Validate() != nil {
		t.Fatal("valid options rejected")
	}
	for _, o := range []Options{
		{WminNM: 0, Bands: 1},
		{WminNM: 109, Bands: 0},
		{WminNM: 109, Bands: 3},
		{WminNM: 109, Bands: 1, BandGapNM: -1},
	} {
		if o.Validate() == nil {
			t.Errorf("options %+v should be invalid", o)
		}
	}
}

// The Fig. 3.2 regression: AOI222_X1 widens by ≈ 9 % under one-band
// alignment.
func TestAOI222X1WidensNinePercent(t *testing.T) {
	lib := nangate(t)
	cell, err := lib.Cell("AOI222_X1")
	if err != nil {
		t.Fatal(err)
	}
	aligned, change, err := AlignCell(cell, Options{WminNM: 109, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(change.Penalty-0.0909) > 0.01 {
		t.Fatalf("AOI222_X1 penalty %.4f, want ≈ 0.091", change.Penalty)
	}
	if change.RelocatedColumns != 1 {
		t.Fatalf("relocated columns: %d", change.RelocatedColumns)
	}
	if aligned.WidthNM <= cell.WidthNM {
		t.Fatal("cell should widen")
	}
	// All critical n-devices end up on the single band.
	for _, tr := range aligned.Transistors {
		if tr.WidthNM < 109 {
			t.Fatalf("device %s not upsized: %v", tr.Name, tr.WidthNM)
		}
	}
	// Pins retained.
	if len(aligned.Pins) != len(cell.Pins) {
		t.Fatal("pins must be retained")
	}
	for i := range aligned.Pins {
		if aligned.Pins[i] != cell.Pins[i] {
			t.Fatal("pin moved")
		}
	}
}

// The Table 2 (45 nm column) regression: exactly 4 of 134 cells pay area,
// between 4 % and ~14 %.
func TestNangateLibraryTable2Column(t *testing.T) {
	lib := nangate(t)
	rep, err := AlignLibrary(lib, Options{WminNM: 109, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsWithPenalty != 4 {
		t.Fatalf("impacted cells: %d, want 4", rep.CellsWithPenalty)
	}
	if rep.MinPenalty < 0.035 || rep.MinPenalty > 0.05 {
		t.Fatalf("min penalty %.3f, want ≈ 0.04", rep.MinPenalty)
	}
	if rep.MaxPenalty < 0.12 || rep.MaxPenalty > 0.16 {
		t.Fatalf("max penalty %.3f, want ≈ 0.14", rep.MaxPenalty)
	}
	if got := rep.PenaltyShare(); math.Abs(got-4.0/134) > 1e-9 {
		t.Fatalf("penalty share: %v", got)
	}
	if err := rep.Library.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Library.Cells) != 134 {
		t.Fatalf("aligned library size: %d", len(rep.Library.Cells))
	}
}

// The two-band variant must eliminate all area penalty (Table 2).
func TestTwoBandsZeroPenalty(t *testing.T) {
	for _, build := range []func() (*celllib.Library, error){
		celllib.NangateLike45, celllib.Commercial65,
	} {
		lib, err := build()
		if err != nil {
			t.Fatal(err)
		}
		wmin := 109.0
		if lib.NodeNM == 65 {
			wmin = 112
		}
		rep, err := AlignLibrary(lib, Options{WminNM: wmin, Bands: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CellsWithPenalty != 0 {
			t.Fatalf("%s: two bands should cost nothing, %d cells pay", lib.Name, rep.CellsWithPenalty)
		}
		if rep.MaxPenalty != 0 {
			t.Fatalf("%s: max penalty %v", lib.Name, rep.MaxPenalty)
		}
	}
}

// The Table 2 (65 nm column) regression: about 20 % of cells pay, in the
// 10 %–70 % band (our geometric model tops out near 50 %, see
// EXPERIMENTS.md).
func TestCommercial65Table2Column(t *testing.T) {
	lib, err := celllib.Commercial65()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AlignLibrary(lib, Options{WminNM: 112, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	share := rep.PenaltyShare()
	if share < 0.15 || share > 0.24 {
		t.Fatalf("penalized share %.3f, want ≈ 0.20", share)
	}
	if rep.MinPenalty < 0.09 || rep.MinPenalty > 0.13 {
		t.Fatalf("min penalty %.3f, want ≈ 0.10", rep.MinPenalty)
	}
	if rep.MaxPenalty < 0.35 || rep.MaxPenalty > 0.72 {
		t.Fatalf("max penalty %.3f, want within the published 0.10–0.70 band", rep.MaxPenalty)
	}
}

// Alignment is idempotent: running the transform on an already aligned
// library changes nothing further.
func TestAlignmentIdempotent(t *testing.T) {
	lib := nangate(t)
	opt := Options{WminNM: 109, Bands: 1}
	rep1, err := AlignLibrary(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := AlignLibrary(rep1.Library, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsWithPenalty != 0 {
		t.Fatalf("second pass should be free, %d cells pay", rep2.CellsWithPenalty)
	}
	for i := range rep2.Changes {
		if rep2.Changes[i].WidthAfterNM != rep1.Changes[i].WidthAfterNM {
			t.Fatalf("cell %s width changed on second pass", rep2.Changes[i].Name)
		}
	}
}

// After one-band alignment, every critical active sits at the band offset —
// the inter-cell correlation invariant the whole paper rests on.
func TestAllCriticalDevicesOnBand(t *testing.T) {
	lib := nangate(t)
	opt := Options{WminNM: 109, Bands: 1}
	rep, err := AlignLibrary(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Library.Cells {
		c := &rep.Library.Cells[i]
		for _, tr := range c.Transistors {
			if tr.WidthNM < opt.WminNM {
				t.Fatalf("%s/%s below Wmin after alignment", c.Name, tr.Name)
			}
			if tr.WidthNM == opt.WminNM && tr.YOffsetNM != 0 {
				t.Fatalf("%s/%s critical device off band: %v", c.Name, tr.Name, tr.YOffsetNM)
			}
		}
	}
}

func TestAlignCellErrors(t *testing.T) {
	if _, _, err := AlignCell(nil, Options{WminNM: 1, Bands: 1}); err == nil {
		t.Error("nil cell")
	}
	lib := nangate(t)
	c, _ := lib.Cell("INV_X1")
	if _, _, err := AlignCell(c, Options{WminNM: -1, Bands: 1}); err == nil {
		t.Error("bad options")
	}
	if _, err := AlignLibrary(nil, Options{WminNM: 1, Bands: 1}); err == nil {
		t.Error("nil library")
	}
}

func TestUntouchedCellsUnchanged(t *testing.T) {
	lib := nangate(t)
	fill, _ := lib.Cell("FILLCELL_X4")
	aligned, change, err := AlignCell(fill, Options{WminNM: 109, Bands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if change.UpsizedDevices > 0 || change.AlignedDevices > 0 || change.RelocatedColumns > 0 {
		t.Fatalf("fill cell should be untouched: %+v", change)
	}
	if aligned.WidthNM != fill.WidthNM {
		t.Fatal("fill cell width changed")
	}
}

// Property: the transform never shrinks a cell and never produces stacking
// violations, for any Wmin.
func TestQuickAlignInvariants(t *testing.T) {
	lib := nangate(t)
	f := func(rawWmin uint16, twoBands bool) bool {
		wmin := 61 + float64(rawWmin%200)
		bands := 1
		if twoBands {
			bands = 2
		}
		opt := Options{WminNM: wmin, Bands: bands}
		for i := range lib.Cells {
			aligned, change, err := AlignCell(&lib.Cells[i], opt)
			if err != nil {
				return false
			}
			if aligned.WidthNM < lib.Cells[i].WidthNM-1e-9 {
				return false
			}
			if change.Penalty < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

package experiments

import (
	"fmt"

	"github.com/cnfet/yieldlab/internal/alignactive"
	"github.com/cnfet/yieldlab/internal/report"
)

// Table2 regenerates Table 2: the area cost of enforcing the aligned-active
// restriction on the 45 nm (134-cell) and 65 nm (775-cell) libraries, with
// one or two aligned bands, plus the Wmin each configuration achieves.
//
// The 65 nm design's critical-device density scales the paper's measured
// 1.8 FETs/µm by 45/65 (cells grow linearly with the node, so the same
// logic holds fewer devices per µm of row); the two-band variant halves the
// correlation benefit (two independent device groups per row), exactly the
// trade the paper describes in Section 3.3.
func (r *Runner) Table2() (*Result, error) {
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	lib45, err := nangate45()
	if err != nil {
		return nil, err
	}
	lib65, err := commercial65()
	if err != nil {
		return nil, err
	}
	mrmin45, err := r.mrminPaper()
	if err != nil {
		return nil, err
	}
	density65 := r.params.PminPerUM * 45.0 / 65.0
	mrmin65 := r.params.LCNTUM * density65

	type config struct {
		name      string
		lib       string
		bands     int
		relax     float64
		paperWmin float64
	}
	configs := []config{
		{"65 nm, one aligned region", "65", 1, mrmin65, 107},
		{"65 nm, two aligned regions", "65", 2, mrmin65 / 2, 112},
		{"45 nm Nangate-like, one region", "45", 1, mrmin45, 103},
	}

	table := &report.Table{
		Title:   "Table 2 — area penalty of the aligned-active restriction",
		Columns: []string{"configuration", "# cells", "cells w/ penalty", "min penalty", "max penalty", "Wmin (nm)"},
	}
	cmp := &report.ComparisonSet{Name: "table2"}
	for _, cfg := range configs {
		res, err := r.wminAt(cfg.relax)
		if err != nil {
			return nil, err
		}
		lib := lib45
		if cfg.lib == "65" {
			lib = lib65
		}
		rep, err := alignactive.AlignLibrary(lib, alignactive.Options{WminNM: res.Wmin, Bands: cfg.bands})
		if err != nil {
			return nil, err
		}
		if err := table.AddRow(
			cfg.name,
			fmt.Sprintf("%d", len(rep.Changes)),
			fmt.Sprintf("%d (%.0f%%)", rep.CellsWithPenalty, rep.PenaltyShare()*100),
			fmt.Sprintf("%.0f%%", rep.MinPenalty*100),
			fmt.Sprintf("%.0f%%", rep.MaxPenalty*100),
			fmt.Sprintf("%.1f", res.Wmin),
		); err != nil {
			return nil, err
		}
		cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "Wmin, " + cfg.name,
			Paper: cfg.paperWmin, Measured: res.Wmin, Unit: "nm", TolFactor: 1.15})
		switch {
		case cfg.lib == "45" && cfg.bands == 1:
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "45 nm cells with penalty",
				Paper: 4, Measured: float64(rep.CellsWithPenalty), TolFactor: 1.01})
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "45 nm min penalty",
				Paper: 0.04, Measured: rep.MinPenalty, TolFactor: 1.3})
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "45 nm max penalty",
				Paper: 0.14, Measured: rep.MaxPenalty, TolFactor: 1.3})
		case cfg.lib == "65" && cfg.bands == 1:
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "65 nm penalized share",
				Paper: 0.20, Measured: rep.PenaltyShare(), TolFactor: 1.4})
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "65 nm min penalty",
				Paper: 0.10, Measured: rep.MinPenalty, TolFactor: 1.4})
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "65 nm max penalty",
				Paper: 0.70, Measured: rep.MaxPenalty, TolFactor: 2})
		case cfg.lib == "65" && cfg.bands == 2:
			cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "65 nm two-band cells with penalty",
				Paper: 0, Measured: float64(rep.CellsWithPenalty)})
		}
	}
	// The paper's closing note: two bands cost < 5 % extra Wmin.
	one, err := r.wminAt(mrmin65)
	if err != nil {
		return nil, err
	}
	two, err := r.wminAt(mrmin65 / 2)
	if err != nil {
		return nil, err
	}
	table.AddNote("two-band Wmin increase: %.1f%% (paper: <5%%)", (two.Wmin/one.Wmin-1)*100)
	table.AddNote("MRmin: 45 nm %.0f, 65 nm %.0f (density scaled by 45/65)", mrmin45, mrmin65)
	cmp.Add(report.Comparison{Artifact: "Table 2", Quantity: "two-band Wmin increase",
		Paper: 0.047, Measured: two.Wmin/one.Wmin - 1, TolFactor: 2})

	return &Result{Name: "table2", Table: table, Comparisons: cmp}, nil
}

package experiments

import (
	"context"
	"fmt"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/report"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// table1ImpliedDevicePF is the device-level failure probability implied by
// Table 1's published numbers: the uncorrelated column is
// pRF = 1-(1-pF)^360 = 5.3e-6, and the aligned column equals pF directly
// (1.5e-8); both give pF ≈ 1.47e-8.
const table1ImpliedDevicePF = 5.3e-6 / 360

// table1SeedStride separates the Monte Carlo streams of Table 1's columns:
// column i runs on Seed + i·table1SeedStride. The directional columns keep
// their indices 1 (unaligned) and 2 (aligned), and with them their
// published estimates, although column 0 (uncorrelated) draws nothing.
const table1SeedStride = 0x9E37

// Table1 regenerates Table 1: the row failure probability pRF under
// (1) uncorrelated growth, (2) directional growth with the stock cell
// library, and (3) directional growth with aligned-active cells.
//
// The row is parameterized per the paper: LCNT = 200 µm, Pmin-CNFET =
// 1.8 FETs/µm (so MRmin ≈ 360 devices share one CNT span), worst process
// corner (pf = 0.531), and a device width chosen so the analytic device
// failure probability matches the value implied by the published table.
// The uncorrelated column is the paper's Section 2 baseline in closed form,
// 1-(1-pF)^MRmin. The directional columns are Monte Carlo over shared
// tracks on the same row model the query session serves: the
// non-aligned one over the lateral-offset distribution of the synthetic
// 45 nm library weighted by the OpenRISC cell mix, the aligned one as the
// simulation check of the renewal pF it equals.
func (r *Runner) Table1(ctx context.Context) (*Result, error) {
	model, err := r.failureModel()
	if err != nil {
		return nil, err
	}
	width, err := model.WidthForFailureProb(table1ImpliedDevicePF)
	if err != nil {
		return nil, fmt.Errorf("experiments: solving Table 1 device width: %w", err)
	}
	devicePF, err := model.FailureProb(width)
	if err != nil {
		return nil, err
	}
	rm, err := r.RowModelAtPitch(width, device.WorstCorner(), nil)
	if err != nil {
		return nil, err
	}
	mrmin, err := rowyield.MRmin(rm.LCNTNM, rm.DensityPerUM)
	if err != nil {
		return nil, err
	}
	unc, err := rowyield.IndependentRowFailure(devicePF, mrmin)
	if err != nil {
		return nil, err
	}
	mc := func(column int, s rowyield.Scenario) (rowyield.Estimate, error) {
		return rm.EstimateRowFailureParallel(ctx, r.params.Seed+uint64(column)*table1SeedStride,
			s, r.params.MCRounds, r.params.Workers)
	}
	unal, err := mc(1, rowyield.DirectionalUnaligned)
	if err != nil {
		return nil, err
	}
	al, err := mc(2, rowyield.DirectionalAligned)
	if err != nil {
		return nil, err
	}

	paperPRF := map[rowyield.Scenario]float64{
		rowyield.UncorrelatedGrowth:   5.3e-6,
		rowyield.DirectionalUnaligned: 2.0e-7,
		rowyield.DirectionalAligned:   1.5e-8,
	}
	table := &report.Table{
		Title: fmt.Sprintf("Table 1 — row failure probability pRF (W=%.1f nm, MRmin=%.0f, %d MC rounds)",
			width, mrmin, r.params.MCRounds),
		Columns: []string{"scenario", "pRF (MC)", "± stderr", "pRF (analytic)", "paper"},
	}
	cmp := &report.ComparisonSet{Name: "table1"}
	// measured is the column's best value: the closed form where one
	// exists, the Monte Carlo mean otherwise.
	for _, row := range []struct {
		s                    rowyield.Scenario
		mc, stderr, analytic string
		measured             float64
	}{
		{rowyield.UncorrelatedGrowth, "—", "—", fmt.Sprintf("%.2e", unc), unc},
		{rowyield.DirectionalUnaligned, fmt.Sprintf("%.2e", unal.Mean), fmt.Sprintf("%.1e", unal.StdErr), "—", unal.Mean},
		{rowyield.DirectionalAligned, fmt.Sprintf("%.2e", al.Mean), fmt.Sprintf("%.1e", al.StdErr), fmt.Sprintf("%.2e", devicePF), devicePF},
	} {
		if err := table.AddRow(row.s.String(), row.mc, row.stderr, row.analytic,
			fmt.Sprintf("%.1e", paperPRF[row.s])); err != nil {
			return nil, err
		}
		cmp.Add(report.Comparison{
			Artifact:  "Table 1",
			Quantity:  "pRF, " + row.s.String(),
			Paper:     paperPRF[row.s],
			Measured:  row.measured,
			TolFactor: 2.5,
		})
	}
	table.AddNote("benefit of directional growth alone: %.1f× (paper: 26.5×)", unc/unal.Mean)
	table.AddNote("additional benefit of aligned-active: %.1f× (paper: 13×)", unal.Mean/al.Mean)
	table.AddNote("total: %.0f× (paper: ≈350×); closed-form total is MRmin = %.0f×", unc/al.Mean, mrmin)
	table.AddNote("library offsets: %d distinct lateral positions over %.0f nm", rm.Offsets.DistinctCount(), rm.Offsets.Span())

	cmp.Add(report.Comparison{Artifact: "Table 1", Quantity: "directional-growth benefit",
		Paper: 26.5, Measured: unc / unal.Mean, TolFactor: 1.8})
	cmp.Add(report.Comparison{Artifact: "Table 1", Quantity: "aligned-active extra benefit",
		Paper: 13, Measured: unal.Mean / al.Mean, TolFactor: 1.8})
	cmp.Add(report.Comparison{Artifact: "Table 1", Quantity: "total benefit",
		Paper: 353, Measured: unc / al.Mean, TolFactor: 1.6})

	return &Result{Name: "table1", Table: table, Comparisons: cmp}, nil
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/numeric"
	"github.com/cnfet/yieldlab/internal/plot"
	"github.com/cnfet/yieldlab/internal/report"
	"github.com/cnfet/yieldlab/internal/yield"
)

// Fig21 regenerates Fig. 2.1: CNFET failure probability vs width for the
// three processing corners, with the two failure-budget anchor lines
// (3e-9 uncorrelated, ≈1.1e-6 after the 350× correlation relaxation) and
// the Wmin values they imply.
func (r *Runner) Fig21() (*Result, error) {
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	shared, err := r.failureModel()
	if err != nil {
		return nil, err
	}
	ws := numeric.Linspace(20, 320, 76)
	var series []plot.Series
	for _, corner := range device.PaperCorners() {
		var m *device.FailureModel
		if corner.Params == device.WorstCorner() {
			m = shared
		} else {
			m, err = device.NewFailureModel(shared.CountModel(), corner.Params)
			if err != nil {
				return nil, err
			}
		}
		ps := make([]float64, len(ws))
		if err := m.FailureProbsInto(ps, ws); err != nil {
			return nil, err
		}
		series = append(series, plot.Series{Name: corner.Name, Xs: ws, Ys: ps})
	}

	// Anchors: the uncorrelated requirement and its 350×-relaxed version.
	mrmin, err := r.mrminPaper()
	if err != nil {
		return nil, err
	}
	base, err := r.wminAt(1)
	if err != nil {
		return nil, err
	}
	opt, err := r.wminAt(mrmin)
	if err != nil {
		return nil, err
	}
	p155, err := shared.FailureProb(155)
	if err != nil {
		return nil, err
	}
	req, err := yield.RequiredDevicePF(0.33*r.params.M, r.params.DesiredYield)
	if err != nil {
		return nil, err
	}

	table := &report.Table{
		Title:   "Fig. 2.1 — CNFET failure probability vs width (pRm = 1)",
		Columns: append([]string{"W (nm)"}, cornerNames()...),
	}
	for i, w := range ws {
		if i%5 != 0 {
			continue
		}
		row := []string{fmt.Sprintf("%.0f", w)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3e", s.Ys[i]))
		}
		if err := table.AddRow(row...); err != nil {
			return nil, err
		}
	}
	table.AddNote("failure budget (1-Yd)/Mmin = %.2e at Mmin = %.2g", req, 0.33*r.params.M)
	table.AddNote("Wmin (uncorrelated) = %.1f nm; Wmin (correlated, %.0f×) = %.1f nm",
		base.Wmin, mrmin, opt.Wmin)

	chart := &plot.LineChart{
		Title:  "Fig. 2.1  pF vs W (log scale)",
		XLabel: "W (nm)",
		YLabel: "pF",
		LogY:   true,
		Series: series,
	}
	rendered, err := chart.Render()
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	if err := plot.SeriesCSV(&csv, series); err != nil {
		return nil, err
	}

	cmp := &report.ComparisonSet{Name: "fig2.1"}
	cmp.Add(report.Comparison{Artifact: "Fig. 2.1", Quantity: "pF at 155 nm (worst corner)",
		Paper: 3.0e-9, Measured: p155, TolFactor: 2})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.1", Quantity: "Wmin, uncorrelated",
		Paper: 155, Measured: base.Wmin, Unit: "nm", TolFactor: 1.1})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.1", Quantity: "Wmin after 350× relaxation",
		Paper: 103, Measured: opt.Wmin, Unit: "nm", TolFactor: 1.15})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.1", Quantity: "Wmin reduction",
		Paper: 52, Measured: base.Wmin - opt.Wmin, Unit: "nm", TolFactor: 1.3})

	return &Result{
		Name:        "fig2.1",
		Table:       table,
		Comparisons: cmp,
		Charts:      []string{rendered},
		CSVs:        map[string]string{"fig2_1_pf_vs_width.csv": csv.String()},
	}, nil
}

func cornerNames() []string {
	var out []string
	for _, c := range device.PaperCorners() {
		out = append(out, "pF ("+c.Name+")")
	}
	return out
}

package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/cnfet/yieldlab/internal/plot"
	"github.com/cnfet/yieldlab/internal/power"
	"github.com/cnfet/yieldlab/internal/report"
	"github.com/cnfet/yieldlab/internal/tech"
	"github.com/cnfet/yieldlab/internal/widthdist"
)

// Fig22a regenerates Fig. 2.2a: the transistor-width histogram of the
// OpenRISC core on the 45 nm library (40 nm bins). Both the frozen
// distribution (used by the yield math) and the synthetic-netlist empirical
// share are reported.
func (r *Runner) Fig22a() (*Result, error) {
	if err := r.params.Validate(); err != nil {
		return nil, err
	}
	d := widthdist.OpenRISC45()
	h, err := d.Histogram(40)
	if err != nil {
		return nil, err
	}
	table := &report.Table{
		Title:   "Fig. 2.2a — OpenRISC transistor width distribution (40 nm bins)",
		Columns: []string{"bin (nm)", "share (%)"},
	}
	shares := h.Shares()
	centers := h.BinCenters()
	xs := make([]float64, len(shares))
	ys := make([]float64, len(shares))
	for i := range shares {
		if err := table.AddRow(
			fmt.Sprintf("[%.0f, %.0f)", h.Edges[i], h.Edges[i+1]),
			fmt.Sprintf("%.1f", shares[i]*100),
		); err != nil {
			return nil, err
		}
		xs[i], ys[i] = centers[i], shares[i]*100
	}
	twoLeft := d.ShareBelow(120)
	below155 := d.ShareBelow(155)
	table.AddNote("two left-most bins: %.0f%% of M (the paper's Mmin estimate)", twoLeft*100)
	table.AddNote("mean width %.0f nm; share below Wmin=155 nm: %.0f%%", d.Mean(), below155*100)

	// Cross-check against the synthetic netlist on the synthetic library.
	lib45, nl, err := r.openRISC45()
	if err != nil {
		return nil, err
	}
	nlShare, err := nl.ShareBelow(lib45, 155)
	if err != nil {
		return nil, err
	}

	bars := &plot.BarChart{
		Title:  "Fig. 2.2a  width histogram",
		YLabel: "share of transistors (%)",
		Labels: binLabels(h.Edges),
		Groups: []plot.Series{{Name: "share %", Ys: ys}},
	}
	rendered, err := bars.Render()
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	if err := plot.SeriesCSV(&csv, []plot.Series{{Name: "share", Xs: xs, Ys: ys}}); err != nil {
		return nil, err
	}

	cmp := &report.ComparisonSet{Name: "fig2.2a"}
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2a", Quantity: "two left bins share",
		Paper: 0.33, Measured: twoLeft, TolFactor: 1.05})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2a", Quantity: "share below Wmin=155",
		Paper: 0.33, Measured: below155, TolFactor: 1.05})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2a", Quantity: "synthetic netlist share below 155",
		Paper: 0.33, Measured: nlShare, TolFactor: 1.35})

	return &Result{
		Name:        "fig2.2a",
		Table:       table,
		Comparisons: cmp,
		Charts:      []string{rendered},
		CSVs:        map[string]string{"fig2_2a_width_hist.csv": csv.String()},
	}, nil
}

func binLabels(edges []float64) []string {
	out := make([]string, len(edges)-1)
	for i := range out {
		out[i] = fmt.Sprintf("%.0f", edges[i+1])
	}
	return out
}

// Fig22b regenerates Fig. 2.2b: the gate-capacitance penalty of upsizing to
// the uncorrelated Wmin, swept across technology nodes with the CNT pitch
// held at 4 nm.
func (r *Runner) Fig22b() (*Result, error) {
	base, err := r.wminAt(1)
	if err != nil {
		return nil, err
	}
	cap := power.DefaultCapModel()
	sweep, err := cap.ScalingSweep(widthdist.OpenRISC45(), base.Wmin, tech.PaperNodes())
	if err != nil {
		return nil, err
	}
	table := &report.Table{
		Title:   fmt.Sprintf("Fig. 2.2b — upsizing penalty vs node (Wt = %.1f nm, no correlation)", base.Wmin),
		Columns: []string{"node", "penalty (%)"},
	}
	labels := make([]string, len(sweep))
	ys := make([]float64, len(sweep))
	xs := make([]float64, len(sweep))
	for i, np := range sweep {
		if err := table.AddRow(np.Node.Name, fmt.Sprintf("%.1f", np.Penalty*100)); err != nil {
			return nil, err
		}
		labels[i] = np.Node.Name
		ys[i] = np.Penalty * 100
		xs[i] = np.Node.DrawnNM
	}
	bars := &plot.BarChart{
		Title:  "Fig. 2.2b  penalty vs technology node",
		YLabel: "gate capacitance increase (%)",
		Labels: labels,
		Groups: []plot.Series{{Name: "without correlation", Ys: ys}},
	}
	rendered, err := bars.Render()
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	if err := plot.SeriesCSV(&csv, []plot.Series{{Name: "penalty_pct", Xs: xs, Ys: ys}}); err != nil {
		return nil, err
	}

	// The paper reports Fig. 2.2b as a chart; reference values are read off
	// it (EXPERIMENTS.md documents the read-off uncertainty).
	cmp := &report.ComparisonSet{Name: "fig2.2b"}
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2b", Quantity: "45 nm penalty",
		Paper: 0.12, Measured: sweep[0].Penalty, TolFactor: 2})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2b", Quantity: "16 nm penalty",
		Paper: 1.05, Measured: sweep[3].Penalty, TolFactor: 1.4})
	cmp.Add(report.Comparison{Artifact: "Fig. 2.2b", Quantity: "16 nm / 45 nm penalty growth",
		Paper: 1.05 / 0.12, Measured: sweep[3].Penalty / sweep[0].Penalty, TolFactor: 1.8})

	return &Result{
		Name:        "fig2.2b",
		Table:       table,
		Comparisons: cmp,
		Charts:      []string{rendered},
		CSVs:        map[string]string{"fig2_2b_penalty_vs_node.csv": csv.String()},
	}, nil
}

// Fig33 regenerates Fig. 3.3: the same penalty sweep before and after the
// directional-growth + aligned-active co-optimization.
func (r *Runner) Fig33() (*Result, error) {
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
	cap := power.DefaultCapModel()
	d := widthdist.OpenRISC45()
	nodes := tech.PaperNodes()
	before, err := cap.ScalingSweep(d, base.Wmin, nodes)
	if err != nil {
		return nil, err
	}
	after, err := cap.ScalingSweep(d, opt.Wmin, nodes)
	if err != nil {
		return nil, err
	}
	table := &report.Table{
		Title: fmt.Sprintf("Fig. 3.3 — penalty vs node, before (Wt=%.1f nm) and after (Wt=%.1f nm) co-optimization",
			base.Wmin, opt.Wmin),
		Columns: []string{"node", "without correlation (%)", "with correlation + aligned-active (%)"},
	}
	labels := make([]string, len(nodes))
	b := make([]float64, len(nodes))
	a := make([]float64, len(nodes))
	xs := make([]float64, len(nodes))
	for i := range nodes {
		if err := table.AddRow(nodes[i].Name,
			fmt.Sprintf("%.1f", before[i].Penalty*100),
			fmt.Sprintf("%.1f", after[i].Penalty*100)); err != nil {
			return nil, err
		}
		labels[i] = nodes[i].Name
		b[i] = before[i].Penalty * 100
		a[i] = after[i].Penalty * 100
		xs[i] = nodes[i].DrawnNM
	}
	bars := &plot.BarChart{
		Title:  "Fig. 3.3  penalty vs node, before/after",
		YLabel: "gate capacitance increase (%)",
		Labels: labels,
		Groups: []plot.Series{
			{Name: "without correlation", Ys: b},
			{Name: "with correlation + aligned", Ys: a},
		},
	}
	rendered, err := bars.Render()
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	if err := plot.SeriesCSV(&csv, []plot.Series{
		{Name: "before_pct", Xs: xs, Ys: b},
		{Name: "after_pct", Xs: xs, Ys: a},
	}); err != nil {
		return nil, err
	}

	cmp := &report.ComparisonSet{Name: "fig3.3"}
	cmp.Add(report.Comparison{Artifact: "Fig. 3.3", Quantity: "45 nm optimized penalty",
		Paper: 0.02, Measured: after[0].Penalty, TolFactor: 3})
	for i := range nodes {
		cmp.Add(report.Comparison{
			Artifact: "Fig. 3.3",
			Quantity: fmt.Sprintf("%s penalty reduction factor", nodes[i].Name),
			Paper:    math.NaN(), Measured: before[i].Penalty / after[i].Penalty,
		})
	}

	return &Result{
		Name:        "fig3.3",
		Table:       table,
		Comparisons: cmp,
		Charts:      []string{rendered},
		CSVs:        map[string]string{"fig3_3_penalty_before_after.csv": csv.String()},
	}, nil
}

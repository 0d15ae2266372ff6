package experiments

import (
	"fmt"

	"github.com/cnfet/yieldlab/internal/alignactive"
	"github.com/cnfet/yieldlab/internal/celllib"
	"github.com/cnfet/yieldlab/internal/plot"
	"github.com/cnfet/yieldlab/internal/report"
)

// Fig32 regenerates Fig. 3.2: the AOI222_X1 cell before and after the
// aligned-active restriction is enforced — the paper's illustrative case of
// a cell that must widen (≈ 9 %) to put every critical n-type active region
// on the global grid.
func (r *Runner) Fig32() (*Result, error) {
	mrmin, err := r.mrminPaper()
	if err != nil {
		return nil, err
	}
	opt, err := r.wminAt(mrmin)
	if err != nil {
		return nil, err
	}
	lib45, err := nangate45()
	if err != nil {
		return nil, err
	}
	cell, err := lib45.Cell("AOI222_X1")
	if err != nil {
		return nil, err
	}
	aligned, change, err := alignactive.AlignCell(cell, alignactive.Options{WminNM: opt.Wmin, Bands: 1})
	if err != nil {
		return nil, err
	}
	table := &report.Table{
		Title:   fmt.Sprintf("Fig. 3.2 — AOI222_X1 under aligned-active restriction (Wmin = %.1f nm)", opt.Wmin),
		Columns: []string{"quantity", "before", "after"},
	}
	rows := [][3]string{
		{"cell width (nm)", fmt.Sprintf("%.0f", change.WidthBeforeNM), fmt.Sprintf("%.0f", change.WidthAfterNM)},
		{"n-active regions", fmt.Sprintf("%d", countRegions(cell, celllib.NFET)), fmt.Sprintf("%d", countRegions(&aligned, celllib.NFET))},
		{"distinct critical n offsets", fmt.Sprintf("%d", distinctCriticalOffsets(cell, opt.Wmin)), fmt.Sprintf("%d", distinctCriticalOffsets(&aligned, opt.Wmin))},
		{"devices upsized", "—", fmt.Sprintf("%d", change.UpsizedDevices)},
		{"columns added", "—", fmt.Sprintf("%d", change.RelocatedColumns)},
	}
	for _, row := range rows {
		if err := table.AddRow(row[0], row[1], row[2]); err != nil {
			return nil, err
		}
	}
	table.AddNote("cell width increase: %.1f%% (paper: ≈9%%)", change.Penalty*100)

	svgs := map[string]string{
		"fig3_2_aoi222_before.svg": renderCell(cell, opt.Wmin, "AOI222_X1 (original)"),
		"fig3_2_aoi222_after.svg":  renderCell(&aligned, opt.Wmin, "AOI222_X1 (aligned-active)"),
	}
	cmp := &report.ComparisonSet{Name: "fig3.2"}
	cmp.Add(report.Comparison{Artifact: "Fig. 3.2", Quantity: "AOI222_X1 width increase",
		Paper: 0.09, Measured: change.Penalty, TolFactor: 1.3})
	cmp.Add(report.Comparison{Artifact: "Fig. 3.2", Quantity: "critical offsets after alignment",
		Paper: 1, Measured: float64(distinctCriticalOffsets(&aligned, opt.Wmin)), TolFactor: 1.01})

	return &Result{Name: "fig3.2", Table: table, Comparisons: cmp, SVGs: svgs}, nil
}

func countRegions(c *celllib.Cell, typ celllib.DeviceType) int {
	n := 0
	for _, reg := range c.ActiveRegions() {
		if reg.Type == typ {
			n++
		}
	}
	return n
}

func distinctCriticalOffsets(c *celllib.Cell, wmin float64) int {
	seen := map[float64]bool{}
	for _, t := range c.Transistors {
		if t.Type == celllib.NFET && t.WidthNM <= wmin {
			seen[t.YOffsetNM] = true
		}
	}
	return len(seen)
}

// renderCell draws a cell's active regions Fig. 3.2 style: n regions below,
// p regions above, poly columns as vertical lines, critical regions
// highlighted with the paper's dashed outline.
func renderCell(c *celllib.Cell, wmin float64, title string) string {
	const margin = 30.0
	scale := 0.35
	w := c.WidthNM*scale + 2*margin
	h := c.HeightNM*scale + 2*margin
	svg := plot.NewSVG(w, h)
	toX := func(x float64) float64 { return margin + x*scale }
	// n row occupies the lower half, p row the upper half (offsets are per
	// device-row origin).
	rowBase := map[celllib.DeviceType]float64{
		celllib.NFET: margin + c.HeightNM*scale*0.95,
		celllib.PFET: margin + c.HeightNM*scale*0.45,
	}
	svg.Rect(margin, margin, c.WidthNM*scale, c.HeightNM*scale, "", "black", 1.5)
	svg.Text(margin, margin-8, 13, title)
	cols := int(c.WidthNM/c.PolyPitchNM + 0.5)
	for col := 0; col < cols; col++ {
		x := toX((float64(col) + 0.625) * c.PolyPitchNM)
		svg.Line(x, margin, x, margin+c.HeightNM*scale, "#cc4444", 1)
	}
	for _, reg := range c.ActiveRegions() {
		base := rowBase[reg.Type]
		y := base - (reg.YOffsetNM+reg.WidthNM)*scale
		fill := "#88aa88"
		if reg.Type == celllib.PFET {
			fill = "#8888cc"
		}
		svg.Rect(toX(reg.X0NM), y, (reg.X1NM-reg.X0NM)*scale, reg.WidthNM*scale, fill, "black", 0.5)
		critical := true
		for _, ti := range reg.Transistors {
			if c.Transistors[ti].WidthNM > wmin {
				critical = false
			}
		}
		if critical && reg.Type == celllib.NFET {
			svg.DashedRect(toX(reg.X0NM)-2, y-2, (reg.X1NM-reg.X0NM)*scale+4, reg.WidthNM*scale+4, "goldenrod", 1.5)
		}
	}
	return svg.String()
}

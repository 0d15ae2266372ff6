// Package celllib models CNFET standard-cell libraries at the fidelity the
// paper's Section 3.2/3.3 analysis needs: per-cell transistor lists with
// active-region geometry (horizontal extent, lateral offset, width), pins,
// and library-level statistics.
//
// Two synthetic libraries are generated deterministically:
//
//   - NangateLike45: 134 cells mirroring the (CNFET-modified [Bobba 09])
//     Nangate 45 nm Open Cell Library of the paper's case study;
//   - Commercial65: 775 cells mirroring the commercial 65 nm library of
//     Table 2, with a larger share of folded, multi-offset cells.
//
// The libraries are substitutes for the real (proprietary) layouts; their
// free parameters — which cells fold their active regions, by how much, and
// the lateral offset each cell family uses — are calibrated so the paper's
// published aggregates emerge from the geometry (see DESIGN.md §2/§5):
// 4/134 Nangate cells pay area under one-band alignment (max 14 %),
// AOI222_X1 widens by ≈ 9 %, ~20 % of the 65 nm library pays 10–70 %, and
// the library-wide offset spread reproduces Table 1's 26.5× partial-
// correlation benefit.
//
//yield:compute
package celllib

import (
	"errors"
	"fmt"
	"sort"
)

// DeviceType distinguishes pull-down from pull-up devices.
type DeviceType uint8

// Device types.
const (
	NFET DeviceType = iota
	PFET
)

// String implements fmt.Stringer.
func (d DeviceType) String() string {
	switch d {
	case NFET:
		return "nfet"
	case PFET:
		return "pfet"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(d))
	}
}

// Transistor is one CNFET inside a cell.
type Transistor struct {
	// Name identifies the device within the cell (e.g. "MN2").
	Name string
	// Type is NFET or PFET.
	Type DeviceType
	// WidthNM is the channel width (the CNT-count-critical dimension).
	WidthNM float64
	// Column is the poly column the gate sits on.
	Column int
	// YOffsetNM is the lateral offset of the active region's lower edge,
	// measured from the cell's device-row origin (per device type). CNTs
	// run horizontally, so two transistors in a placement row share CNTs
	// exactly when their [YOffset, YOffset+Width) windows overlap.
	YOffsetNM float64
}

// ActiveRegion is a contiguous diffusion rectangle hosting one or more
// same-type, same-offset transistors.
type ActiveRegion struct {
	Type DeviceType
	// X0NM and X1NM bound the region horizontally within the cell.
	X0NM, X1NM float64
	// YOffsetNM is the lateral offset of the lower edge.
	YOffsetNM float64
	// WidthNM is the lateral size (transistor width).
	WidthNM float64
	// Transistors indexes the cell's transistor list.
	Transistors []int
}

// Pin is a cell I/O pin; the aligned-active transform retains pin
// locations to bound the inter-cell routing impact (Section 3.3).
type Pin struct {
	Name   string
	XNM    float64
	YNM    float64
	Signal string // "input", "output", "clock"
}

// Cell is one standard cell.
type Cell struct {
	Name string
	// Function is the logic family ("INV", "AOI222", "DFF", ...).
	Function string
	// Drive is the strength suffix (1, 2, 4, ...).
	Drive int
	// WidthNM and HeightNM are the cell dimensions.
	WidthNM, HeightNM float64
	// PolyPitchNM is the column pitch used for geometry synthesis.
	PolyPitchNM float64
	// Transistors lists all devices.
	Transistors []Transistor
	// Pins lists the I/O pins.
	Pins []Pin
	// Sequential marks flip-flops and latches.
	Sequential bool
}

// Validate checks geometric sanity.
func (c *Cell) Validate() error {
	if c.Name == "" {
		return errors.New("celllib: cell without name")
	}
	if !(c.WidthNM > 0) || !(c.HeightNM > 0) {
		return fmt.Errorf("celllib: cell %s has non-positive dimensions", c.Name)
	}
	for i, t := range c.Transistors {
		if !(t.WidthNM > 0) {
			return fmt.Errorf("celllib: cell %s transistor %d has width %g", c.Name, i, t.WidthNM)
		}
		if t.Column < 0 {
			return fmt.Errorf("celllib: cell %s transistor %d has negative column", c.Name, i)
		}
		if t.YOffsetNM < 0 {
			return fmt.Errorf("celllib: cell %s transistor %d has negative offset", c.Name, i)
		}
		x := c.columnX1(t.Column)
		if x > c.WidthNM+1e-9 {
			return fmt.Errorf("celllib: cell %s transistor %d column %d exceeds cell width", c.Name, i, t.Column)
		}
	}
	return nil
}

// columnX0 returns the left edge of the active landing pad of a column.
func (c *Cell) columnX0(col int) float64 {
	return float64(col)*c.PolyPitchNM + c.PolyPitchNM*0.25
}

// columnX1 returns the right edge of the active landing pad of a column.
func (c *Cell) columnX1(col int) float64 {
	return float64(col)*c.PolyPitchNM + c.PolyPitchNM*1.0
}

// ActiveRegions derives the diffusion rectangles: same-type transistors at
// the same lateral offset on adjacent columns merge into one region.
func (c *Cell) ActiveRegions() []ActiveRegion {
	type key struct {
		typ DeviceType
		off float64
		w   float64
	}
	groups := make(map[key][]int)
	for i, t := range c.Transistors {
		k := key{t.Type, t.YOffsetNM, t.WidthNM}
		groups[k] = append(groups[k], i)
	}
	var out []ActiveRegion
	for k, idxs := range groups {
		sort.Slice(idxs, func(a, b int) bool {
			return c.Transistors[idxs[a]].Column < c.Transistors[idxs[b]].Column
		})
		// Split non-adjacent columns into separate regions.
		start := 0
		for i := 1; i <= len(idxs); i++ {
			if i < len(idxs) && c.Transistors[idxs[i]].Column <= c.Transistors[idxs[i-1]].Column+1 {
				continue
			}
			run := idxs[start:i]
			out = append(out, ActiveRegion{
				Type:        k.typ,
				X0NM:        c.columnX0(c.Transistors[run[0]].Column),
				X1NM:        c.columnX1(c.Transistors[run[len(run)-1]].Column),
				YOffsetNM:   k.off,
				WidthNM:     k.w,
				Transistors: append([]int(nil), run...),
			})
			start = i
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Type != out[b].Type {
			return out[a].Type < out[b].Type
		}
		if out[a].X0NM != out[b].X0NM {
			return out[a].X0NM < out[b].X0NM
		}
		return out[a].YOffsetNM < out[b].YOffsetNM
	})
	return out
}

// Library is a named set of cells.
type Library struct {
	Name string
	// NodeNM is the technology node (45 or 65).
	NodeNM float64
	Cells  []Cell
}

// Validate checks every cell and name uniqueness.
func (l *Library) Validate() error {
	seen := make(map[string]bool, len(l.Cells))
	for i := range l.Cells {
		c := &l.Cells[i]
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("celllib: duplicate cell name %s", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Cell returns the named cell or an error.
func (l *Library) Cell(name string) (*Cell, error) {
	for i := range l.Cells {
		if l.Cells[i].Name == name {
			return &l.Cells[i], nil
		}
	}
	return nil, fmt.Errorf("celllib: no cell %q in library %s", name, l.Name)
}

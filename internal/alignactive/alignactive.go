// Package alignactive implements the paper's proposed design step
// (Section 3.2): enforcing the aligned-active layout restriction on a
// standard-cell library.
//
// The transform follows the paper's heuristic:
//
//  1. Estimate Wmin (Eqs. 2.5/3.1) — supplied by the caller via Options.
//  2. Find the critical active regions: every CNFET with width < Wmin, and
//     upsize them to Wmin.
//  3. Place the n-type (same for p-type) critical active regions of all
//     cells so their lateral positions match a globally defined grid (one
//     band), or two grid positions (the two-band variant of Section 3.3
//     that trades 2× of the correlation benefit for zero area cost).
//  4. Modify the intra-cell geometry as necessary: stacked critical devices
//     that collapse onto the same band in the same poly column must
//     relocate to freshly added columns, widening the cell — the area
//     penalty of Table 2 and the +9 % AOI222_X1 example of Fig. 3.2.
//
// Pins are never moved (the paper: "we retained the location of the I/O
// pins as much as possible"), so inter-cell routing impact stays bounded.
//
//yield:compute
package alignactive

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/cnfet/yieldlab/internal/celllib"
)

// Options configures the transform.
type Options struct {
	// WminNM is the sizing threshold: devices below it are critical, get
	// upsized to it, and their active regions are aligned.
	WminNM float64
	// Bands is the number of aligned lateral grid positions (1 = the full-
	// benefit restriction; 2 = the zero-area variant at half the
	// correlation benefit).
	Bands int
	// BandGapNM separates the bands vertically (defaults to 40 nm).
	BandGapNM float64
}

// Validate checks the options.
func (o Options) Validate() error {
	if !(o.WminNM > 0) {
		return fmt.Errorf("alignactive: Wmin %g must be positive", o.WminNM)
	}
	if o.Bands < 1 || o.Bands > 2 {
		return fmt.Errorf("alignactive: bands must be 1 or 2, got %d", o.Bands)
	}
	if o.BandGapNM < 0 {
		return fmt.Errorf("alignactive: band gap %g must be ≥ 0", o.BandGapNM)
	}
	return nil
}

// bandOffset returns the lateral position of band b.
func (o Options) bandOffset(b int) float64 {
	gap := o.BandGapNM
	if gap == 0 {
		gap = 40
	}
	return float64(b) * (o.WminNM + gap)
}

// CellChange records what the transform did to one cell.
type CellChange struct {
	Name string
	// WidthBeforeNM and WidthAfterNM are the cell widths around the
	// transform.
	WidthBeforeNM, WidthAfterNM float64
	// Penalty is the fractional width increase (the paper's area penalty).
	Penalty float64
	// UpsizedDevices counts transistors widened to Wmin.
	UpsizedDevices int
	// AlignedDevices counts transistors moved onto a band.
	AlignedDevices int
	// RelocatedColumns counts freshly added poly columns.
	RelocatedColumns int
}

// AlignCell applies the restriction to a single cell, returning the
// transformed copy and the change record. The input cell is not modified.
func AlignCell(c *celllib.Cell, opt Options) (celllib.Cell, CellChange, error) {
	if c == nil {
		return celllib.Cell{}, CellChange{}, errors.New("alignactive: nil cell")
	}
	if err := opt.Validate(); err != nil {
		return celllib.Cell{}, CellChange{}, err
	}
	out := *c
	out.Transistors = append([]celllib.Transistor(nil), c.Transistors...)
	out.Pins = append([]celllib.Pin(nil), c.Pins...)
	change := CellChange{Name: c.Name, WidthBeforeNM: c.WidthNM, WidthAfterNM: c.WidthNM}

	// Pass 1: upsizing (Section 2.2) and identification of critical devices.
	critical := make([]int, 0, len(out.Transistors))
	for i := range out.Transistors {
		t := &out.Transistors[i]
		if t.WidthNM < opt.WminNM {
			critical = append(critical, i)
			if t.WidthNM != opt.WminNM {
				t.WidthNM = opt.WminNM
				change.UpsizedDevices++
			}
		}
	}
	if len(critical) == 0 {
		return out, change, nil
	}

	// Pass 2: band assignment per (type, column). Distinct original offsets
	// within a column occupy bands in order; offsets beyond the band budget
	// overflow and must relocate.
	type slotKey struct {
		typ celllib.DeviceType
		col int
		off float64
	}
	slots := make(map[slotKey][]int)
	for _, i := range critical {
		t := out.Transistors[i]
		k := slotKey{t.Type, t.Column, t.YOffsetNM}
		slots[k] = append(slots[k], i)
	}
	// Distinct offsets per (type, column), in ascending offset order so the
	// base region lands on band 0 deterministically.
	type colKey struct {
		typ celllib.DeviceType
		col int
	}
	colOffsets := make(map[colKey][]float64)
	for k := range slots {
		ck := colKey{k.typ, k.col}
		colOffsets[ck] = append(colOffsets[ck], k.off)
	}
	for _, offs := range colOffsets {
		sort.Float64s(offs)
	}
	// Fixed obstacles: non-critical devices never move, so a band whose
	// lateral range overlaps one in the same column is unusable there.
	isCritical := make(map[int]bool, len(critical))
	for _, i := range critical {
		isCritical[i] = true
	}
	fixedRanges := make(map[colKey][][2]float64)
	for i := range out.Transistors {
		if isCritical[i] {
			continue
		}
		t := out.Transistors[i]
		ck := colKey{t.Type, t.Column}
		fixedRanges[ck] = append(fixedRanges[ck], [2]float64{t.YOffsetNM, t.YOffsetNM + t.WidthNM})
	}
	bandFree := func(ck colKey, b int) bool {
		lo := opt.bandOffset(b)
		hi := lo + opt.WminNM
		for _, r := range fixedRanges[ck] {
			if lo < r[1] && r[0] < hi {
				return false
			}
		}
		return true
	}
	// Overflow units: (column, offset) pairs shared across device types so
	// an n/p pair relocates into one shared fresh column.
	type overflowKey struct {
		col int
		off float64
	}
	overflow := make(map[overflowKey]bool)
	for ck, offs := range colOffsets {
		used := make([]bool, opt.Bands)
		for _, off := range offs {
			k := slotKey{ck.typ, ck.col, off}
			assigned := -1
			for b := 0; b < opt.Bands; b++ {
				if !used[b] && bandFree(ck, b) {
					assigned = b
					break
				}
			}
			if assigned < 0 {
				overflow[overflowKey{ck.col, off}] = true
				continue
			}
			used[assigned] = true
			band := opt.bandOffset(assigned)
			for _, i := range slots[k] {
				out.Transistors[i].YOffsetNM = band
				change.AlignedDevices++
			}
		}
	}

	// Pass 3: relocate overflow slots into fresh columns at the cell edge.
	if len(overflow) > 0 {
		usedCols := int(math.Round(out.WidthNM/out.PolyPitchNM)) - 1
		keys := make([]overflowKey, 0, len(overflow))
		for k := range overflow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].col != keys[b].col {
				return keys[a].col < keys[b].col
			}
			return keys[a].off < keys[b].off
		})
		for n, k := range keys {
			newCol := usedCols + n
			for _, typ := range []celllib.DeviceType{celllib.NFET, celllib.PFET} {
				sk := slotKey{typ, k.col, k.off}
				for _, i := range slots[sk] {
					out.Transistors[i].Column = newCol
					out.Transistors[i].YOffsetNM = opt.bandOffset(0)
					change.AlignedDevices++
				}
			}
		}
		change.RelocatedColumns = len(keys)
		out.WidthNM += float64(len(keys)) * out.PolyPitchNM
	}
	change.WidthAfterNM = out.WidthNM
	change.Penalty = out.WidthNM/c.WidthNM - 1

	if err := verifyNoStacking(&out); err != nil {
		return celllib.Cell{}, CellChange{}, fmt.Errorf("alignactive: cell %s: %w", c.Name, err)
	}
	if err := out.Validate(); err != nil {
		return celllib.Cell{}, CellChange{}, fmt.Errorf("alignactive: transformed cell invalid: %w", err)
	}
	return out, change, nil
}

// verifyNoStacking asserts that no two same-type devices in one column
// overlap laterally after the transform — the geometric invariant the
// relocation pass must guarantee.
func verifyNoStacking(c *celllib.Cell) error {
	type colKey struct {
		typ celllib.DeviceType
		col int
	}
	byCol := make(map[colKey][]int)
	for i, t := range c.Transistors {
		k := colKey{t.Type, t.Column}
		byCol[k] = append(byCol[k], i)
	}
	for k, idxs := range byCol {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				ta, tb := c.Transistors[idxs[a]], c.Transistors[idxs[b]]
				if ta.YOffsetNM < tb.YOffsetNM+tb.WidthNM && tb.YOffsetNM < ta.YOffsetNM+ta.WidthNM {
					return fmt.Errorf("devices %s and %s overlap in column %d",
						ta.Name, tb.Name, k.col)
				}
			}
		}
	}
	return nil
}

// LibraryReport aggregates a whole-library transform (Table 2).
type LibraryReport struct {
	// Library is the transformed library.
	Library *celllib.Library
	// Changes has one entry per cell, in library order.
	Changes []CellChange
	// CellsWithPenalty counts cells whose width grew.
	CellsWithPenalty int
	// MinPenalty and MaxPenalty summarize the penalized cells (zero when
	// none pay).
	MinPenalty, MaxPenalty float64
	// MeanPenalty averages over penalized cells only.
	MeanPenalty float64
}

// PenaltyShare returns the fraction of cells paying area.
func (r *LibraryReport) PenaltyShare() float64 {
	if len(r.Changes) == 0 {
		return 0
	}
	return float64(r.CellsWithPenalty) / float64(len(r.Changes))
}

// AlignLibrary applies the restriction to every cell.
func AlignLibrary(lib *celllib.Library, opt Options) (*LibraryReport, error) {
	if lib == nil {
		return nil, errors.New("alignactive: nil library")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	rep := &LibraryReport{
		Library: &celllib.Library{Name: lib.Name + "-aligned", NodeNM: lib.NodeNM},
	}
	var sum float64
	for i := range lib.Cells {
		aligned, change, err := AlignCell(&lib.Cells[i], opt)
		if err != nil {
			return nil, err
		}
		rep.Library.Cells = append(rep.Library.Cells, aligned)
		rep.Changes = append(rep.Changes, change)
		if change.Penalty > 1e-12 {
			rep.CellsWithPenalty++
			sum += change.Penalty
			if rep.MinPenalty == 0 || change.Penalty < rep.MinPenalty {
				rep.MinPenalty = change.Penalty
			}
			if change.Penalty > rep.MaxPenalty {
				rep.MaxPenalty = change.Penalty
			}
		}
	}
	if rep.CellsWithPenalty > 0 {
		rep.MeanPenalty = sum / float64(rep.CellsWithPenalty)
	}
	if err := rep.Library.Validate(); err != nil {
		return nil, fmt.Errorf("alignactive: aligned library invalid: %w", err)
	}
	return rep, nil
}

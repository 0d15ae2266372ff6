// Package rowyield implements the paper's core contribution (Section 3):
// chip yield when CNFETs in a placement row share carbon nanotubes.
//
// Under directional growth, CNTs run for LCNT ≈ 200 µm along a row, so the
// minimum-width CNFETs of a row stop being independent. With the row
// partitioned into LCNT-long stretches ("rows" in the paper's Eq. 3.1):
//
//	Yield = Π_i (1 - pRF_i) ≈ 1 - KR·pRF            (Eq. 3.1)
//	MRmin = LCNT · Pmin-CNFET                        (Eq. 3.2)
//
// where pRF is the failure probability of a row and MRmin the number of
// minimum-width CNFETs per row (≈ 360 at 45 nm: 200 µm × 1.8 FETs/µm).
//
// Three growth/layout scenarios (Table 1) are modeled:
//
//   - Uncorrelated growth: every CNFET sees independent CNTs,
//     pRF = 1-(1-pF)^MRmin — the Section 2 baseline.
//   - Directional growth, non-aligned actives: CNFETs share tracks
//     partially, depending on the lateral offsets of their active regions
//     across the cell library. Computed by Monte Carlo over track
//     realizations with an exact inner evaluation (the paper: "requires
//     numerical methods").
//   - Directional growth, aligned actives: every CNFET in the row sees the
//     same CNTs, so pRF = pF — the best case, and the source of the
//     MRmin ≈ 350× failure-budget relaxation.
//
// The exact inner evaluation is a run-length dynamic program: given the
// realized track positions, each CNFET covers a contiguous interval of
// tracks, each track fails independently with probability pf, and the row
// fails iff some interval is fully failed. P(no interval fully failed) is
// computed exactly in O(tracks × max interval length).
//
//yield:compute
package rowyield

import (
	"errors"
	"fmt"
	"math"
)

// MRmin returns Eq. 3.2: the average number of minimum-width CNFETs per
// correlated row, LCNT (nm) × density (FETs per µm).
func MRmin(lcntNM, densityPerUM float64) (float64, error) {
	if !(lcntNM > 0) {
		return 0, fmt.Errorf("rowyield: LCNT %g must be positive", lcntNM)
	}
	if !(densityPerUM > 0) {
		return 0, fmt.Errorf("rowyield: density %g must be positive", densityPerUM)
	}
	return lcntNM / 1000 * densityPerUM, nil
}

// CorrelatedYield returns Eq. 3.1: (1-pRF)^KR for KR independent rows.
func CorrelatedYield(kRows, pRF float64) (float64, error) {
	if !(kRows >= 0) {
		return 0, fmt.Errorf("rowyield: KR %g must be ≥ 0", kRows)
	}
	if pRF < 0 || pRF > 1 || math.IsNaN(pRF) {
		return 0, fmt.Errorf("rowyield: pRF %g out of [0,1]", pRF)
	}
	if pRF == 1 {
		if kRows == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return math.Exp(kRows * math.Log1p(-pRF)), nil
}

// IndependentRowFailure returns the uncorrelated-growth row failure
// probability 1-(1-pF)^m for m independent CNFETs.
func IndependentRowFailure(pF, m float64) (float64, error) {
	if pF < 0 || pF > 1 || math.IsNaN(pF) {
		return 0, fmt.Errorf("rowyield: pF %g out of [0,1]", pF)
	}
	if !(m >= 0) {
		return 0, fmt.Errorf("rowyield: m %g must be ≥ 0", m)
	}
	if pF == 1 && m > 0 {
		return 1, nil
	}
	return -math.Expm1(m * math.Log1p(-pF)), nil
}

// Interval is an inclusive range [Lo, Hi] of track indices covered by one
// CNFET's active region. An empty interval (Hi < Lo) denotes a CNFET whose
// window holds no tracks at all — it fails with certainty.
type Interval struct {
	Lo, Hi int
}

// Empty reports whether the interval contains no tracks.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

// Len returns the number of tracks covered.
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// ExactRowFailure returns the exact probability that at least one interval
// is fully failed, when each of nTracks tracks fails independently with
// probability pf. This is the conditional row-failure probability given a
// track realization; Monte Carlo over realizations then averages it.
//
// The computation is a run-length dynamic program over the reusable
// RoundState scratch (see state.go); this wrapper pays for a fresh state per
// call, the Monte Carlo rounds amortize one across all their realizations.
func ExactRowFailure(intervals []Interval, nTracks int, pf float64) (float64, error) {
	var st RoundState
	return exactRowFailureInto(&st, intervals, nTracks, pf)
}

// OffsetDist is a discrete distribution of lateral active-region offsets
// (nm) across the standard-cell library: the non-aligned layout's source of
// partial correlation. Offsets are measured from the row's track origin.
//
// The row Monte Carlo does not draw offsets one at a time: it samples
// per-offset CNFET counts from normalized Probs (see unalignedFromTracks),
// so RowModel.Prepare normalizes a literal distribution up front;
// NewOffsetDist and Aligned return normalized ones.
type OffsetDist struct {
	Offsets []float64
	Probs   []float64

	// normalized marks a distribution built by NewOffsetDist or Aligned,
	// whose Probs sum to one.
	normalized bool
}

// NewOffsetDist validates and normalizes an offset distribution.
func NewOffsetDist(offsets, probs []float64) (OffsetDist, error) {
	if len(offsets) == 0 || len(offsets) != len(probs) {
		return OffsetDist{}, errors.New("rowyield: offsets and probs must be non-empty and equal length")
	}
	var total float64
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return OffsetDist{}, fmt.Errorf("rowyield: offset prob %d = %g invalid", i, p)
		}
		if offsets[i] < 0 || math.IsNaN(offsets[i]) {
			return OffsetDist{}, fmt.Errorf("rowyield: offset %d = %g invalid", i, offsets[i])
		}
		total += p
	}
	if !(total > 0) {
		return OffsetDist{}, errors.New("rowyield: zero total offset probability")
	}
	os := make([]float64, len(offsets))
	ps := make([]float64, len(probs))
	copy(os, offsets)
	for i, p := range probs {
		ps[i] = p / total
	}
	return OffsetDist{Offsets: os, Probs: ps, normalized: true}, nil
}

// Aligned returns the degenerate distribution of the aligned-active layout:
// every critical active region sits at the same lateral position.
func Aligned() OffsetDist {
	return OffsetDist{Offsets: []float64{0}, Probs: []float64{1}, normalized: true}
}

// Span returns the maximum offset.
func (o OffsetDist) Span() float64 {
	max := 0.0
	for _, v := range o.Offsets {
		if v > max {
			max = v
		}
	}
	return max
}

// DistinctCount returns the number of offsets carrying probability mass:
// the group count G behind the first-order estimate pRF ≈ G·pF for
// non-overlapping offsets.
func (o OffsetDist) DistinctCount() int {
	n := 0
	for _, p := range o.Probs {
		if p > 0 {
			n++
		}
	}
	return n
}

package rowyield

import (
	"fmt"
	"math"
)

// This file holds the reusable per-goroutine scratch of the Monte Carlo
// round functions. A steady-state round — track realization, interval
// extraction, exact DP — touches only memory owned by its RoundState,
// so it performs zero heap allocations and needs no locking: the parallel
// estimators give every worker goroutine its own state via
// montecarlo.RunState.

// RoundState is the reusable scratch of one Monte Carlo round. States are
// not safe for concurrent use; give each goroutine its own (the parallel
// estimators do, through the montecarlo engine's per-worker factory).
type RoundState struct {
	tracks    []float64
	intervals []Interval
	// Exact-DP scratch (see exactRowFailureInto).
	minLenEnd []int32
	ring      []float64
	// scratchAllocs counts scratch-growth events (capacity-miss fallbacks,
	// track-buffer growth) over the state's lifetime; see ScratchAllocs.
	scratchAllocs uint64
}

// ScratchAllocs returns the state's cumulative scratch-growth events:
// capacity-miss reallocations in the DP scratch and track-buffer growth
// past NewRoundState's pre-sizing. It implements
// obs.ScratchCounter, so the montecarlo engine folds the count into a
// span's counters at worker exit; a non-zero steady-state value flags a
// pre-sizing regression worth investigating.
func (st *RoundState) ScratchAllocs() uint64 {
	return st.scratchAllocs
}

// NewRoundState returns scratch pre-sized for the model's expected track and
// interval populations, so steady-state rounds allocate nothing. Call after
// Prepare (estimator entry points do both).
func (m *RowModel) NewRoundState() *RoundState {
	st := &RoundState{}
	// Expected tracks over the widest realized span, with 4× headroom for
	// pitch-law fluctuation; the append paths grow past it if a realization
	// ever needs more. clampCount bounds degenerate width/pitch ratios, and
	// an invalid model (nil pitch) just gets the default sizing — Round's
	// Prepare will reject it with a proper error before the scratch is used.
	span := m.WidthNM + m.Offsets.Span()
	expect := 64
	if m.Pitch != nil {
		if mean := m.Pitch.Mean(); mean > 0 {
			expect = clampCount(span/mean)*4 + 64
		}
	}
	st.tracks = make([]float64, 0, expect)
	st.intervals = make([]Interval, 0, m.Offsets.DistinctCount()+1)
	st.minLenEnd = make([]int32, 0, expect)
	ringCap := 1
	for ringCap < expect {
		ringCap <<= 1
	}
	st.ring = make([]float64, 0, ringCap)
	return st
}

// exactRowFailureInto returns, over caller-owned scratch, the exact
// probability that at least one interval is fully failed when each of
// nTracks tracks fails independently with probability pf: the conditional
// row-failure probability given a track realization, which the Monte Carlo
// rounds average over realizations. The run-length Markov chain is
// evaluated in a sliding ring buffer: advancing one track is a base-index
// decrement plus a saturation fold (run lengths cap at maxLen) instead of
// an O(maxLen) copy, and the uniform pf-scaling of surviving runs is
// carried in a scalar `scale` factored out of the buffer. The per-track
// cost is O(1) plus the width of the run range an ending interval kills,
// so a realization costs O(nTracks + total killed range) instead of
// O(nTracks × maxLen). The chain stops at the last track an interval ends
// on: past it nothing can be killed, so the surviving mass is final.
//
//yield:noalloc
func exactRowFailureInto(st *RoundState, intervals []Interval, nTracks int, pf float64) (float64, error) {
	if err := validateRowFailureArgs(nTracks, pf); err != nil {
		return 0, err
	}
	// minLenEnd[t] = length of the shortest interval ending exactly at t
	// (0 = none). The shortest is binding: a failure run of that length
	// kills the row.
	if cap(st.minLenEnd) < nTracks {
		st.scratchAllocs++
		st.minLenEnd = make([]int32, nTracks) //yield:allow(noalloc) capacity-miss fallback; NewRoundState pre-sizes this so steady-state rounds never take it
	}
	minLenEnd := st.minLenEnd[:nTracks]
	for i := range minLenEnd {
		minLenEnd[i] = 0
	}
	maxLen, lastEnd := 0, -1
	for _, iv := range intervals {
		if iv.Empty() {
			// A CNFET with no tracks fails with certainty.
			return 1, nil
		}
		if iv.Lo < 0 || iv.Hi >= nTracks {
			return 0, fmt.Errorf("rowyield: interval [%d,%d] outside track range [0,%d)", iv.Lo, iv.Hi, nTracks) //yield:allow(noalloc) cold error path guarding caller bugs, never taken in steady state
		}
		l := iv.Len()
		if l > maxLen {
			maxLen = l
		}
		if cur := minLenEnd[iv.Hi]; cur == 0 || int32(l) < cur {
			minLenEnd[iv.Hi] = int32(l)
		}
		lastEnd = max(lastEnd, iv.Hi)
	}
	if len(intervals) == 0 {
		return 0, nil
	}
	switch pf {
	case 0:
		return 0, nil // no track ever fails; every interval is non-empty
	case 1:
		return 1, nil // every track fails, completing any interval
	}
	// ring[(base+r)&mask]·scale = P(current consecutive-failure run length
	// = r, no interval fully failed so far); runs saturate at maxLen (any
	// binding threshold is ≤ maxLen, so saturation never hides a
	// violation). Slots outside the window [base, base+maxLen] are stale
	// and never read: the window slides by one slot per track, the freshly
	// entered slot is overwritten with the new zero-run mass, and the slot
	// that falls out is first folded into the saturation cap.
	ringCap := 1
	for ringCap < maxLen+1 {
		ringCap <<= 1
	}
	if cap(st.ring) < ringCap {
		st.scratchAllocs++
		st.ring = make([]float64, ringCap) //yield:allow(noalloc) capacity-miss fallback; NewRoundState pre-sizes this so steady-state rounds never take it
	}
	ring := st.ring[:ringCap]
	for i := range ring {
		ring[i] = 0
	}
	mask := ringCap - 1
	base := 0
	ring[0] = 1
	scale, invScale := 1.0, 1.0
	invPf := 1 / pf
	q := 1 - pf
	alive := 1.0
	for t := 0; t <= lastEnd; t++ {
		// Transition: every run extends by one (×pf, carried by scale),
		// the saturation cap absorbs the run falling off the window, and
		// the new zero-run slot collects (1-pf)·(surviving mass).
		top := ring[(base+maxLen)&mask]
		base = (base - 1) & mask
		ring[(base+maxLen)&mask] += top
		scale *= pf
		invScale *= invPf
		if scale < 1e-150 {
			// Renormalize before invScale can overflow on long rows.
			for r := 0; r <= maxLen; r++ {
				ring[(base+r)&mask] *= scale
			}
			scale, invScale = 1, 1
		}
		ring[base] = q * alive * invScale
		if need := int(minLenEnd[t]); need > 0 {
			// Any run ≥ need that ends at t completes an interval: that
			// probability mass dies.
			for r := need; r <= maxLen; r++ {
				j := (base + r) & mask
				alive -= scale * ring[j]
				ring[j] = 0
			}
		}
	}
	st.ring = ring[:0]
	// Numerical guard.
	if alive < 0 {
		alive = 0
	}
	if alive > 1 {
		alive = 1
	}
	return 1 - alive, nil
}

func validateRowFailureArgs(nTracks int, pf float64) error {
	if pf < 0 || pf > 1 || math.IsNaN(pf) {
		return fmt.Errorf("rowyield: pf %g out of [0,1]", pf)
	}
	if nTracks < 0 {
		return fmt.Errorf("rowyield: nTracks %d negative", nTracks)
	}
	return nil
}

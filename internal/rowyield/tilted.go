package rowyield

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/cnfet/yieldlab/internal/dist"
)

// TiltedRowModel is the importance-sampling counterpart of a prepared
// RowModel: it draws the renewal gaps of a directional round from the
// exponentially tilted pitch law (dist.TruncNormal.Tilt) and returns each
// round's exact conditional failure probability multiplied by the
// realization's unbiased likelihood-ratio weight.
//
// Only the pitch draws are tilted. The first gap keeps the base model's
// stationary forward-recurrence law at weight one — the weight of a round is
// then exp(k·log M(θ) − θ·D) where k is the number of tilted draws and D
// their sum, and both are recovered from the realization itself: k is the
// track count and D the total displacement from the first track to the final
// overshoot, so the zero-allocation round structure of the base engine
// carries over unchanged. Unbiasedness is the standard sequentially-stopped
// importance-sampling argument: the number of draws is a stopping time of
// the drawn prefix (the loop stops when the running sum passes the span), so
// E_θ[p(T)·W(T)] = E[p(T)] for every realization functional p.
//
// A TiltedRowModel is immutable after construction and safe for concurrent
// use; rounds need a per-goroutine RoundState from the base model's
// NewRoundState.
type TiltedRowModel struct {
	base  *RowModel
	theta float64
	logM  float64
	pitch pitchSampler
}

// Tilted builds the importance sampler for tilt parameter theta. The model's
// pitch law must be a dist.TruncNormal (the calibrated pitch family); theta
// zero returns a weight-one sampler identical to the plain rounds. The
// tilted law is a plain TruncNormal, so its tabulated inverse-CDF sampler is
// shared through the same fingerprint-keyed cache as every other law.
func (m *RowModel) Tilted(theta float64) (*TiltedRowModel, error) {
	if err := m.Prepare(); err != nil {
		return nil, err
	}
	var tn dist.TruncNormal
	switch p := m.Pitch.(type) {
	case dist.TruncNormal:
		tn = p
	case *dist.TruncNormal:
		tn = *p
	default:
		return nil, fmt.Errorf("rowyield: tilting requires a truncated-normal pitch law, have %T", m.Pitch)
	}
	tilted, logM, err := tn.Tilt(theta)
	if err != nil {
		return nil, err
	}
	pitch, err := newPitchSampler(tilted)
	if err != nil {
		return nil, err
	}
	return &TiltedRowModel{base: m, theta: theta, logM: logM, pitch: pitch}, nil
}

// Base returns the untilted model the sampler was built from.
func (t *TiltedRowModel) Base() *RowModel { return t.base }

// Theta returns the tilt parameter.
func (t *TiltedRowModel) Theta() float64 { return t.theta }

// NewRoundState returns scratch for the tilted rounds (tilted realizations
// have no more tracks than the base law's sizing expects for theta ≥ 0, and
// the buffers grow on demand for theta < 0).
func (t *TiltedRowModel) NewRoundState() *RoundState { return t.base.NewRoundState() }

// Round runs one importance-sampled realization of scenario s and returns
// p·W: the realization's exact conditional failure probability times its
// likelihood-ratio weight. Averaging Round over tilted realizations is an
// unbiased estimator of the same pRF the plain rounds estimate, with the
// variance concentrated where the tilt steers mass into the failure region.
// Only the directional scenarios are supported — the uncorrelated scenario
// has the closed form IndependentRowFailure and needs no sampling at all.
//
//yield:noalloc
func (t *TiltedRowModel) Round(r *rand.Rand, s Scenario, st *RoundState) (float64, error) {
	pw, _, err := t.Moments(r, s, st)
	return pw, err
}

// Moments runs one tilted realization and returns the pair (p·W, p²·W):
// one-sample unbiased estimators of the base law's first and second moments
// E[p] and E[p²] of the conditional failure probability. The second moment
// is what prices an untilted run's variance — Var_plain/round = E[p²]−E[p]²
// — and in the deep tail it is exactly the quantity a plain run cannot
// measure about itself: the heavy p-tail that dominates E[p²] is the part
// plain sampling essentially never visits, so plain Welford error bars
// collapse spuriously. Estimating E[p²] under the tilted law instead keeps
// the auto-selection and the variance-ratio gates honest.
//
//yield:noalloc
func (t *TiltedRowModel) Moments(r *rand.Rand, s Scenario, st *RoundState) (pw, p2w float64, err error) {
	m := t.base
	var span float64
	switch s {
	case DirectionalAligned:
		span = m.WidthNM
	case DirectionalUnaligned:
		span = m.WidthNM + m.offSpan
	default:
		return 0, 0, fmt.Errorf("rowyield: tilted rounds support directional scenarios, not %v", s) //yield:allow(noalloc) cold error path for an unsupported scenario, never taken in steady state
	}
	// The realization draws its gaps from the tilted law; D = Σ tilted
	// draws is the displacement drawTracks returns, and the number of tilted
	// draws equals the track count.
	var disp float64
	st.tracks, disp = drawTracks(r, m.fr, t.pitch, span, st.tracks[:0])
	logW := float64(len(st.tracks))*t.logM - t.theta*disp
	var p float64
	if s == DirectionalAligned {
		p, err = m.alignedFromTracks(st)
	} else {
		p, err = m.unalignedFromTracks(r, st)
	}
	if err != nil {
		return 0, 0, err
	}
	if p == 0 {
		return 0, 0, nil // avoid 0·exp(overflow) = NaN for extreme negative tilts
	}
	pw = p * math.Exp(logW)
	return pw, p * pw, nil
}

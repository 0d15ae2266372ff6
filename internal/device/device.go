// Package device implements the CNFET device-level failure model of the
// paper's Section 2.1:
//
//   - Eq. 2.1: per-CNT failure probability pf = pm + ps·pRs — a CNT is
//     useless if it is metallic (and hence etched by the m-CNT removal step)
//     or if it is a semiconducting CNT removed inadvertently.
//   - Eq. 2.2: device failure probability pF(W) = Σ_k Prob{N(W)=k}·pf^k —
//     the CNFET fails iff every CNT in its channel is useless.
//
// The CNT count distribution Prob{N(W)} comes from the renewal pitch model
// (package renewal) with the calibrated pitch law returned by
// CalibratedPitch. The package also provides the inverse solver W(pF) used
// by the Wmin optimization, and a drive-current model exhibiting the
// 1/√N statistical-averaging law the paper cites as background.
//
//yield:compute
package device

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/numeric"
	"github.com/cnfet/yieldlab/internal/renewal"
)

// Pitch model constants (see DESIGN.md §5).
const (
	// MeanPitchNM is the mean inter-CNT pitch; the paper fixes it at the
	// optimized value of 4 nm [Deng 07].
	MeanPitchNM = 4.0

	// PitchSigmaRatio is the parent-normal σ/μ of the truncated-normal pitch
	// law. The paper inherits the pitch variability ratio from [Zhang 09a]
	// without printing it; this value is calibrated once so the worst-corner
	// curve of Fig. 2.1 passes through the published anchor
	// pF(155 nm) = 3.0e-9 (the 90%-yield requirement for 33e6 minimum-size
	// CNFETs). The post-truncation ratio σS/μS evaluates to ≈ 0.88.
	PitchSigmaRatio = 2.3

	// PitchMinNM is the lower truncation bound of the pitch law. Zero
	// permits arbitrarily close (bundled) CNTs, which directional growth
	// does produce.
	PitchMinNM = 0.0
)

// CalibratedPitch returns the frozen inter-CNT pitch distribution:
// a truncated normal on [PitchMinNM, ∞) with post-truncation mean
// MeanPitchNM and parent sigma PitchSigmaRatio·MeanPitchNM.
func CalibratedPitch() (dist.TruncNormal, error) {
	return calibratedPitch()
}

// calibratedPitch solves the frozen law's parent location once: the solve
// is a bisection on the truncated mean, and its inputs are constants, so
// every call would reach the same value.
var calibratedPitch = sync.OnceValues(func() (dist.TruncNormal, error) {
	return dist.TruncNormalWithMean(MeanPitchNM, PitchSigmaRatio*MeanPitchNM, PitchMinNM)
})

// FailureParams carries the processing probabilities of Section 2.1.
type FailureParams struct {
	// PMetallic is pm, the probability that a grown CNT is metallic.
	PMetallic float64
	// PRemoveSemi is pRs, the conditional probability that the m-CNT
	// removal step also removes a semiconducting CNT.
	PRemoveSemi float64
	// PRemoveMetallic is pRm, the conditional probability that a metallic
	// CNT is removed. The paper assumes pRm ≈ 1 for count-failure analysis;
	// values below 1 leave surviving m-CNTs, a noise-margin concern
	// (internal/noisemargin), not a count failure.
	PRemoveMetallic float64
}

// Validate checks all probabilities lie in [0, 1].
func (p FailureParams) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"PMetallic", p.PMetallic},
		{"PRemoveSemi", p.PRemoveSemi},
		{"PRemoveMetallic", p.PRemoveMetallic},
	} {
		if v.val < 0 || v.val > 1 || math.IsNaN(v.val) {
			return fmt.Errorf("device: %s = %g out of [0,1]", v.name, v.val)
		}
	}
	return nil
}

// PerCNTFailure returns pf = pm + ps·pRs (Eq. 2.1): the probability that a
// single CNT contributes nothing to conduction. Metallic CNTs never count as
// useful channels regardless of whether the removal step catches them, so
// pRm does not appear here.
func (p FailureParams) PerCNTFailure() float64 {
	return p.PMetallic + (1-p.PMetallic)*p.PRemoveSemi
}

// Corner is a named processing condition, matching the three curves of
// Fig. 2.1.
type Corner struct {
	Name   string
	Params FailureParams
}

// PaperCorners returns the three processing corners plotted in Fig. 2.1,
// worst first. All assume perfect metallic removal (pRm = 1).
func PaperCorners() []Corner {
	return []Corner{
		{Name: "pm=33%, pRs=30%", Params: FailureParams{PMetallic: 0.33, PRemoveSemi: 0.30, PRemoveMetallic: 1}},
		{Name: "pm=33%, pRs=0%", Params: FailureParams{PMetallic: 0.33, PRemoveSemi: 0, PRemoveMetallic: 1}},
		{Name: "pm=0%, pRs=0%", Params: FailureParams{PMetallic: 0, PRemoveSemi: 0, PRemoveMetallic: 1}},
	}
}

// WorstCorner returns the pm=33%, pRs=30% corner used for every headline
// number in the paper (pf = 0.531).
func WorstCorner() FailureParams {
	return PaperCorners()[0].Params
}

// FailureModel evaluates pF(W) for one processing condition over one CNT
// count model. It is safe for concurrent use (the underlying renewal model
// caches internally under a lock).
type FailureModel struct {
	count *renewal.Model
	pf    float64
}

// NewFailureModel combines a count model and processing parameters.
func NewFailureModel(count *renewal.Model, params FailureParams) (*FailureModel, error) {
	m, err := MakeFailureModel(count, params)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// MakeFailureModel is NewFailureModel returning the model by value, so a
// caller that pairs a cached count model with a corner per query keeps the
// pairing off the heap.
func MakeFailureModel(count *renewal.Model, params FailureParams) (FailureModel, error) {
	if count == nil {
		return FailureModel{}, errors.New("device: nil count model")
	}
	if err := params.Validate(); err != nil {
		return FailureModel{}, err
	}
	return FailureModel{count: count, pf: params.PerCNTFailure()}, nil
}

// NewCalibratedModel builds a FailureModel over the calibrated pitch law
// with a private count model. Extra renewal options (grid step, max width)
// are passed through.
func NewCalibratedModel(params FailureParams, opts ...renewal.Option) (*FailureModel, error) {
	return newCalibrated(renewal.New, params, opts)
}

// NewCalibratedModelWith is NewCalibratedModel drawing the count model from
// a shared sweep cache, so models that differ only in the processing corner
// (same pitch law, same grid) reuse one swept table.
func NewCalibratedModelWith(sweeps *renewal.SweepCache, params FailureParams, opts ...renewal.Option) (*FailureModel, error) {
	return newCalibrated(sweeps.Model, params, opts)
}

// newCalibrated builds the calibrated pitch law's count model with build.
func newCalibrated(build func(dist.Continuous, ...renewal.Option) (*renewal.Model, error), params FailureParams, opts []renewal.Option) (*FailureModel, error) {
	pitch, err := CalibratedPitch()
	if err != nil {
		return nil, fmt.Errorf("device: calibrated pitch: %w", err)
	}
	count, err := build(pitch, opts...)
	if err != nil {
		return nil, fmt.Errorf("device: count model: %w", err)
	}
	return NewFailureModel(count, params)
}

// PerCNTFailure returns pf for this model.
func (m *FailureModel) PerCNTFailure() float64 { return m.pf }

// CountModel exposes the underlying renewal model.
func (m *FailureModel) CountModel() *renewal.Model { return m.count }

// FailureProb returns pF(w) per Eq. 2.2: the count PGF at pf, read through
// the count model's per-cell memo, which FailureModels of every corner over
// one shared count model fill together.
func (m *FailureModel) FailureProb(w float64) (float64, error) {
	return m.count.PGF(w, m.pf)
}

// FailureProbsInto writes pF at each of ws into dst, which must be as long
// as ws. It validates every width before it sweeps; a short ws on a swept
// model allocates nothing.
func (m *FailureModel) FailureProbsInto(dst, ws []float64) error {
	return m.count.PGFsInto(dst, ws, m.pf)
}

// WidthForFailureProb returns the smallest width whose failure probability
// does not exceed target — the horizontal-line construction on Fig. 2.1 that
// turns a failure budget into Wmin. It errors when the target is
// unreachable within the model's width range.
func (m *FailureModel) WidthForFailureProb(target float64) (float64, error) {
	if !(target > 0) || target >= 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("device: target failure probability %g out of (0,1)", target)
	}
	lo := m.count.Step() * 2
	hi := m.count.MaxWidth()
	logTarget := math.Log(target)
	f := func(w float64) float64 {
		p, err := m.FailureProb(w)
		if err != nil || p <= 0 {
			// Below the resolvable probability floor: count as "passed".
			return -1
		}
		return math.Log(p) - logTarget
	}
	if f(hi) > 0 {
		return 0, fmt.Errorf("device: target pF=%g not reachable below W=%g nm", target, hi)
	}
	if f(lo) <= 0 {
		return lo, nil
	}
	w, err := numeric.Bisect(f, lo, hi, 1e-3, 200)
	if err != nil {
		return 0, fmt.Errorf("device: inverting pF: %w", err)
	}
	return w, nil
}
